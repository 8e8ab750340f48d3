package bench

import (
	"fmt"
	"time"

	"repro/internal/kplex"
)

// figure7Cases picks the datasets of the paper's Figure 7 / Figure 14 q
// sweep: wiki-vote and soc-pokec analogues for two values of k each.
func (c *Config) figure7Cases() []struct {
	ds Dataset
	k  int
	qs []int
} {
	wiki, _ := ByName("wiki-vote-syn")
	pokec, _ := ByName("pokec-syn")
	cases := []struct {
		ds Dataset
		k  int
		qs []int
	}{
		{wiki, 3, []int{24, 26, 28, 30, 32}},
		{wiki, 4, []int{30, 32, 34, 36}},
		{pokec, 3, []int{6, 8, 10, 12}},
		{pokec, 4, []int{10, 12, 14}},
	}
	if c.Quick {
		cases = cases[:1]
		cases[0].qs = cases[0].qs[:3]
	}
	return cases
}

// Figure7 prints the time-vs-q series for FP, ListPlex and Ours (paper
// Figures 7 and 14). Each block is one subplot; each line is one q value
// with the three algorithm times, ready for plotting.
func (c *Config) Figure7() error {
	algos := SequentialAlgos()
	three := []Algo{algos[0], algos[1], algos[3]} // FP, ListPlex, Ours
	c.printf("Figure 7 — Running time vs q (sec)\n")
	for _, cs := range c.figure7Cases() {
		g := cs.ds.Build()
		c.printf("# %s (k=%d)\n", cs.ds.Name, cs.k)
		c.printf("%4s %10s %10s %10s %12s\n", "q", "FP", "ListPlex", "Ours", "#k-plexes")
		for _, q := range cs.qs {
			var times []time.Duration
			var count int64 = -1
			for _, a := range three {
				m, err := Run(g, a.Opts(cs.k, q))
				if err != nil {
					return fmt.Errorf("figure7 %s k=%d q=%d %s: %w", cs.ds.Name, cs.k, q, a.Name, err)
				}
				if count == -1 {
					count = m.Count
				} else if m.Count != count {
					return fmt.Errorf("figure7 %s k=%d q=%d: count mismatch", cs.ds.Name, cs.k, q)
				}
				times = append(times, m.Elapsed)
			}
			c.printf("%4d %10s %10s %10s %12d\n", q,
				FormatDuration(times[0]), FormatDuration(times[1]), FormatDuration(times[2]), count)
		}
	}
	return nil
}

// Figure8 prints the parallel speedup series (paper Figure 8): Ours with
// 1, 2, 4, 8 and min(16, GOMAXPROCS) threads on the large datasets, with
// the speedup at each thread count over the one-thread run.
func (c *Config) Figure8() error {
	maxT := c.threads()
	threadSteps := []int{1, 2, 4, 8, 16}
	var steps []int
	for _, t := range threadSteps {
		if t <= maxT {
			steps = append(steps, t)
		}
	}
	if len(steps) == 0 {
		steps = []int{1}
	}
	ds := ByClass(Large)
	if c.Quick {
		ds = ds[:1]
	}
	c.printf("Figure 8 — Speedup of parallel Ours\n")
	for _, d := range ds {
		g := d.Build()
		params := d.Params
		if c.Quick {
			params = params[:1]
		}
		for _, kq := range params {
			c.printf("# %s (k=%d, q=%d)\n", d.Name, kq.K, kq.Q)
			c.printf("%8s %10s %8s\n", "threads", "time", "speedup")
			var base time.Duration
			var count int64 = -1
			for _, th := range steps {
				opts := kplex.NewOptions(kq.K, kq.Q)
				opts.Threads = th
				if th > 1 {
					opts.TaskTimeout = 100 * time.Microsecond
				}
				m, err := Run(g, opts)
				if err != nil {
					return fmt.Errorf("figure8 %s t=%d: %w", d.Name, th, err)
				}
				if count == -1 {
					count = m.Count
				} else if m.Count != count {
					return fmt.Errorf("figure8 %s t=%d: count %d, want %d", d.Name, th, m.Count, count)
				}
				if th == 1 {
					base = m.Elapsed // the one-thread run, the paper's baseline
				}
				c.printf("%8d %10s %8.2f\n", th, FormatDuration(m.Elapsed), float64(base)/float64(m.Elapsed))
			}
		}
	}
	return nil
}

// Figure9 prints the Basic-vs-Ours q sweep (paper Figures 9 and 15).
func (c *Config) Figure9() error {
	cases := c.figure7Cases()
	c.printf("Figure 9 — Basic vs Ours, time vs q (sec)\n")
	for _, cs := range cases {
		g := cs.ds.Build()
		c.printf("# %s (k=%d)\n", cs.ds.Name, cs.k)
		c.printf("%4s %10s %10s\n", "q", "Basic", "Ours")
		for _, q := range cs.qs {
			mb, err := Run(g, kplex.BasicOptions(cs.k, q))
			if err != nil {
				return err
			}
			mo, err := Run(g, kplex.NewOptions(cs.k, q))
			if err != nil {
				return err
			}
			if mb.Count != mo.Count {
				return fmt.Errorf("figure9 %s k=%d q=%d: count mismatch %d vs %d",
					cs.ds.Name, cs.k, q, mb.Count, mo.Count)
			}
			c.printf("%4d %10s %10s\n", q, FormatDuration(mb.Elapsed), FormatDuration(mo.Elapsed))
		}
	}
	return nil
}

// Figure13 prints the τ_time sensitivity study (paper Appendix B.1,
// Figure 13): parallel Ours across a τ grid on the large datasets.
func (c *Config) Figure13() error {
	threads := c.threads()
	taus := []time.Duration{
		time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond,
		time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
	}
	ds := ByClass(Large)
	if c.Quick {
		ds = ds[:1]
		taus = taus[1:4]
	}
	c.printf("Figure 13 — Effect of τ_time (sec, %d threads)\n", threads)
	for _, d := range ds {
		g := d.Build()
		kq := d.Params[0]
		c.printf("# %s (k=%d, q=%d)\n", d.Name, kq.K, kq.Q)
		c.printf("%12s %10s %10s\n", "τ_time", "time(s)", "splits")
		for _, tau := range taus {
			opts := kplex.NewOptions(kq.K, kq.Q)
			opts.Threads = threads
			opts.TaskTimeout = tau
			m, err := Run(g, opts)
			if err != nil {
				return fmt.Errorf("figure13 %s τ=%v: %w", d.Name, tau, err)
			}
			c.printf("%12v %10s %10d\n", tau, FormatDuration(m.Elapsed), m.Stats.Splits)
		}
	}
	return nil
}
