package bench

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/kplex"
)

// Table2 prints the dataset statistics table (paper Table 2): n, m, Δ, D
// for every synthetic dataset next to the real graph it stands in for.
func (c *Config) Table2() error {
	c.printf("Table 2 — Datasets (synthetic stand-ins)\n")
	c.printf("%-14s %-12s %9s %10s %7s %5s\n", "Network", "analog of", "n", "m", "Δ", "D")
	for _, d := range Suite() {
		if d.Class == Stress || (c.Quick && d.Class == Large) {
			continue
		}
		s := graph.ComputeStats(d.Build())
		c.printf("%-14s %-12s %9d %10d %7d %5d\n", d.Name, d.Analog, s.N, s.M, s.MaxDegree, s.Degeneracy)
	}
	return nil
}

// table3Cases returns the dataset/parameter grid for the sequential
// comparison. Quick mode keeps three representative datasets.
func (c *Config) table3Cases() []Dataset {
	var out []Dataset
	for _, d := range Suite() {
		if d.Class != Small && d.Class != Medium {
			continue
		}
		if c.Quick && d.Name != "jazz-syn" && d.Name != "epinions-syn" && d.Name != "dblp-syn" {
			continue
		}
		out = append(out, d)
	}
	return out
}

// Table3 prints the sequential running-time comparison (paper Table 3):
// #k-plexes plus the times of FP, ListPlex, Ours_P and Ours on the small
// and medium datasets. All algorithms must report identical counts; a
// mismatch is returned as an error since it would invalidate the row.
func (c *Config) Table3() error {
	algos := SequentialAlgos()
	c.printf("Table 3 — Sequential running time (sec)\n")
	c.printf("%-14s %2s %3s %12s", "Network", "k", "q", "#k-plexes")
	for _, a := range algos {
		c.printf(" %10s", a.Name)
	}
	c.printf("\n")
	for _, d := range c.table3Cases() {
		g := d.Build()
		params := d.Params
		if c.Quick && len(params) > 2 {
			params = params[:2]
		}
		for _, kq := range params {
			counts := make([]int64, len(algos))
			times := make([]time.Duration, len(algos))
			for i, a := range algos {
				m, err := Run(g, a.Opts(kq.K, kq.Q))
				if err != nil {
					return fmt.Errorf("table3 %s k=%d q=%d %s: %w", d.Name, kq.K, kq.Q, a.Name, err)
				}
				counts[i], times[i] = m.Count, m.Elapsed
			}
			for i := 1; i < len(counts); i++ {
				if counts[i] != counts[0] {
					return fmt.Errorf("table3 %s k=%d q=%d: count mismatch %s=%d vs %s=%d",
						d.Name, kq.K, kq.Q, algos[0].Name, counts[0], algos[i].Name, counts[i])
				}
			}
			c.printf("%-14s %2d %3d %12d", d.Name, kq.K, kq.Q, counts[0])
			for _, t := range times {
				c.printf(" %10s", FormatDuration(t))
			}
			c.printf("\n")
		}
	}
	return nil
}

// Table4 prints the parallel comparison on the large datasets (paper
// Table 4): FP, ListPlex and Ours with the default τ_time = 0.1 ms, plus
// Ours with the best τ from a small grid.
func (c *Config) Table4() error {
	threads := c.threads()
	taus := []time.Duration{
		10 * time.Microsecond, 100 * time.Microsecond, 1 * time.Millisecond, 10 * time.Millisecond,
	}
	c.printf("Table 4 — Parallel running time (sec, %d threads)\n", threads)
	c.printf("%-14s %2s %3s %12s %10s %10s %10s %14s\n",
		"Network", "k", "q", "#k-plexes", "FP", "ListPlex", "Ours", "Ours(τ_best)")
	ds := ByClass(Large)
	if c.Quick {
		ds = ds[:2]
	}
	for _, d := range ds {
		g := d.Build()
		params := d.Params
		if c.Quick {
			params = params[:1]
		}
		limit := 180 * time.Second
		if c.Quick {
			limit = 30 * time.Second
		}
		for _, kq := range params {
			row := make(map[string]Measurement)
			for _, a := range SequentialAlgos() {
				if a.Name == "Ours_P" {
					continue
				}
				opts := a.Opts(kq.K, kq.Q)
				opts.Threads = threads
				if a.Name == "Ours" {
					opts.TaskTimeout = 100 * time.Microsecond
				} else {
					// The baselines' parallel modes have no straggler
					// splitting, matching their published implementations.
					opts.TaskTimeout = 0
				}
				m, err := RunWithTimeout(g, opts, limit)
				if err != nil {
					return fmt.Errorf("table4 %s %s: %w", d.Name, a.Name, err)
				}
				row[a.Name] = m
			}
			ours := row["Ours"]
			if ours.TimedOut {
				return fmt.Errorf("table4 %s k=%d q=%d: Ours exceeded the %v cap; dataset needs recalibration",
					d.Name, kq.K, kq.Q, limit)
			}
			for name, m := range row {
				if !m.TimedOut && m.Count != ours.Count {
					return fmt.Errorf("table4 %s k=%d q=%d: count mismatch %s=%d vs Ours=%d",
						d.Name, kq.K, kq.Q, name, m.Count, ours.Count)
				}
			}
			// τ_best sweep.
			best := Measurement{Elapsed: 1<<63 - 1}
			tausToTry := taus
			if c.Quick {
				tausToTry = taus[:2]
			}
			for _, tau := range tausToTry {
				opts := kplex.NewOptions(kq.K, kq.Q)
				opts.Threads = threads
				opts.TaskTimeout = tau
				m, err := Run(g, opts)
				if err != nil {
					return fmt.Errorf("table4 τ sweep %s: %w", d.Name, err)
				}
				if m.Elapsed < best.Elapsed {
					best = m
				}
			}
			cell := func(m Measurement) string {
				if m.TimedOut {
					return "T/O"
				}
				return FormatDuration(m.Elapsed)
			}
			c.printf("%-14s %2d %3d %12d %10s %10s %10s %14s\n",
				d.Name, kq.K, kq.Q, ours.Count,
				cell(row["FP"]), cell(row["ListPlex"]), cell(ours),
				FormatDuration(best.Elapsed))
		}
	}
	return nil
}

// ablationCases picks the four representative datasets the paper uses for
// Tables 5 and 6.
func (c *Config) ablationCases() []Dataset {
	names := []string{"wiki-vote-syn", "epinions-syn", "email-syn", "pokec-syn"}
	if c.Quick {
		names = names[:2]
	}
	var out []Dataset
	for _, n := range names {
		d, ok := ByName(n)
		if ok {
			out = append(out, d)
		}
	}
	return out
}

// ablationTable runs one ablation algorithm family over the ablation grid.
func (c *Config) ablationTable(title string, algos []Algo) error {
	c.printf("%s\n", title)
	c.printf("%-14s %2s %3s %12s", "Network", "k", "q", "#k-plexes")
	for _, a := range algos {
		c.printf(" %12s", a.Name)
	}
	c.printf("\n")
	for _, d := range c.ablationCases() {
		g := d.Build()
		params := d.Params
		if c.Quick && len(params) > 2 {
			params = params[:2]
		}
		for _, kq := range params {
			var count int64
			times := make([]time.Duration, len(algos))
			for i, a := range algos {
				m, err := Run(g, a.Opts(kq.K, kq.Q))
				if err != nil {
					return fmt.Errorf("%s %s %s: %w", title, d.Name, a.Name, err)
				}
				if i == 0 {
					count = m.Count
				} else if m.Count != count {
					return fmt.Errorf("%s %s k=%d q=%d: count mismatch (%s: %d vs %d)",
						title, d.Name, kq.K, kq.Q, a.Name, m.Count, count)
				}
				times[i] = m.Elapsed
			}
			c.printf("%-14s %2d %3d %12d", d.Name, kq.K, kq.Q, count)
			for _, t := range times {
				c.printf(" %12s", FormatDuration(t))
			}
			c.printf("\n")
		}
	}
	return nil
}

// Table5 prints the upper-bounding ablation (paper Table 5).
func (c *Config) Table5() error {
	return c.ablationTable("Table 5 — Effect of upper bounding (sec)", AblationUBAlgos())
}

// Table6 prints the pruning-rule ablation (paper Table 6).
func (c *Config) Table6() error {
	return c.ablationTable("Table 6 — Effect of pruning rules (sec)", AblationRuleAlgos())
}

// Table7 prints the peak-memory comparison (paper Appendix B.2, Table 7).
func (c *Config) Table7() error {
	algos := []Algo{
		{"FP", SequentialAlgos()[0].Opts},
		{"ListPlex", SequentialAlgos()[1].Opts},
		{"Ours", kplex.NewOptions},
	}
	c.printf("Table 7 — Peak extra heap during enumeration (MiB)\n")
	c.printf("%-14s %2s %3s", "Network", "k", "q")
	for _, a := range algos {
		c.printf(" %10s", a.Name)
	}
	c.printf("\n")
	for _, d := range c.ablationCases() {
		g := d.Build()
		kq := d.Params[len(d.Params)-1]
		c.printf("%-14s %2d %3d", d.Name, kq.K, kq.Q)
		for _, a := range algos {
			m, err := RunMeasured(g, a.Opts(kq.K, kq.Q))
			if err != nil {
				return err
			}
			c.printf(" %10.2f", float64(m.PeakHeap)/(1<<20))
		}
		c.printf("\n")
	}
	return nil
}
