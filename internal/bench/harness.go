package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/kplex"
)

// Algo names one algorithm configuration under comparison.
type Algo struct {
	Name string
	Opts func(k, q int) kplex.Options
}

// SequentialAlgos returns the four algorithms of the paper's Table 3, in
// the paper's column order.
func SequentialAlgos() []Algo {
	return []Algo{
		{"FP", baseline.FPOptions},
		{"ListPlex", baseline.ListPlexOptions},
		{"Ours_P", func(k, q int) kplex.Options {
			o := kplex.NewOptions(k, q)
			o.Branching = kplex.BranchFaPlexen
			return o
		}},
		{"Ours", kplex.NewOptions},
	}
}

// AblationUBAlgos returns the Table 5 variants.
func AblationUBAlgos() []Algo {
	return []Algo{
		{"Ours\\ub", func(k, q int) kplex.Options {
			o := kplex.NewOptions(k, q)
			o.UpperBound = kplex.UBNone
			return o
		}},
		{"Ours\\ub+fp", func(k, q int) kplex.Options {
			o := kplex.NewOptions(k, q)
			o.UpperBound = kplex.UBSortFP
			return o
		}},
		{"Ours", kplex.NewOptions},
	}
}

// AblationRuleAlgos returns the Table 6 variants.
func AblationRuleAlgos() []Algo {
	return []Algo{
		{"Basic", kplex.BasicOptions},
		{"Basic+R1", func(k, q int) kplex.Options {
			o := kplex.BasicOptions(k, q)
			o.UseSubtaskBound = true
			return o
		}},
		{"Basic+R2", func(k, q int) kplex.Options {
			o := kplex.BasicOptions(k, q)
			o.UsePairPruning = true
			return o
		}},
		{"Ours", kplex.NewOptions},
	}
}

// SchedulerVariant names one parallel work-distribution scheme of the
// scheduler ablation (TableScheduler, Figure8).
type SchedulerVariant struct {
	Name  string
	Style kplex.SchedulerStyle
}

// SchedulerVariants returns the scheduler ablation grid in display order:
// the paper's stage scheme and the barrier-free work-stealing extension.
func SchedulerVariants() []SchedulerVariant {
	return []SchedulerVariant{
		{"stages", kplex.SchedulerStages},
		{"steal", kplex.SchedulerSteal},
	}
}

// Measurement is one timed enumeration.
type Measurement struct {
	Count    int64
	Elapsed  time.Duration
	PeakHeap uint64 // bytes; only filled by RunMeasured
	TimedOut bool   // only set by RunWithTimeout
	Stats    kplex.Stats
}

// Run executes one algorithm configuration on g and reports the result.
func Run(g *graph.Graph, opts kplex.Options) (Measurement, error) {
	res, err := kplex.Run(context.Background(), g, opts)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{Count: res.Count, Elapsed: res.Elapsed, Stats: res.Stats}, nil
}

// RunWithTimeout is Run with a wall-clock cap. TimedOut is set (with no
// error) when the cap was hit; the measurement then holds the partial
// count. The paper's Table 4 reports FP as FAIL on uk-2005 — the large
// hub-heavy graphs can blow up the baselines, and the harness reports
// "T/O" rather than hanging.
func RunWithTimeout(g *graph.Graph, opts kplex.Options, limit time.Duration) (Measurement, error) {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	res, err := kplex.Run(ctx, g, opts)
	m := Measurement{Count: res.Count, Elapsed: res.Elapsed, Stats: res.Stats}
	if err != nil {
		if ctx.Err() != nil {
			m.TimedOut = true
			return m, nil
		}
		return m, err
	}
	return m, nil
}

// RunMeasured is Run plus peak-heap sampling (for the Table 7 memory
// comparison). The sampler polls MemStats at 2ms granularity, which is
// coarse but mirrors how the paper measures peak RSS externally.
func RunMeasured(g *graph.Graph, opts kplex.Options) (Measurement, error) {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	var peak atomic.Uint64
	stop := make(chan struct{})
	donePolling := make(chan struct{})
	go func() {
		defer close(donePolling)
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	m, err := Run(g, opts)
	close(stop)
	<-donePolling
	if err != nil {
		return m, err
	}
	p := peak.Load()
	if p > base.HeapAlloc {
		m.PeakHeap = p - base.HeapAlloc
	}
	return m, nil
}

// FormatDuration renders a duration the way the paper's tables do
// (seconds with two decimals).
func FormatDuration(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Seconds())
}

// Config tunes how much work the table/figure runners do.
type Config struct {
	// Quick restricts every runner to a representative subset of datasets
	// and parameters so the whole suite finishes in roughly a minute. The
	// full mode regenerates every row.
	Quick bool
	// Threads is the parallel worker count used by the parallel
	// experiments; 0 means min(16, GOMAXPROCS) as in the paper's setup.
	Threads int
	// Out receives the formatted tables.
	Out io.Writer
}

func (c *Config) threads() int {
	if c.Threads > 0 {
		return c.Threads
	}
	t := runtime.GOMAXPROCS(0)
	if t > 16 {
		t = 16
	}
	if t < 1 {
		t = 1
	}
	return t
}

func (c *Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}
