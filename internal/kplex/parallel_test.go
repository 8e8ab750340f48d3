package kplex

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
)

// TestTimeoutSplittingFires checks that a tiny τ_time actually materialises
// split tasks and that the result count is unaffected.
func TestTimeoutSplittingFires(t *testing.T) {
	g := gen.ChungLu(1200, 20, 2.2, 31)
	const k, q = 2, 8
	seq := mustRun(t, g, NewOptions(k, q))

	opts := NewOptions(k, q)
	opts.Threads = 4
	opts.TaskTimeout = time.Nanosecond // split at every opportunity
	par := mustRun(t, g, opts)

	if par.Count != seq.Count {
		t.Fatalf("split run count %d != sequential %d", par.Count, seq.Count)
	}
	if par.Stats.Splits == 0 {
		t.Fatal("no tasks were split despite a 1ns τ_time")
	}
}

// TestSplitTasksAreStealable uses one very long τ versus aggressive
// splitting and verifies both modes visit the same result set while the
// aggressive mode creates strictly more tasks.
func TestSplitTasksAreStealable(t *testing.T) {
	g := gen.ChungLu(1200, 20, 2.2, 32)
	const k, q = 2, 8

	slow := NewOptions(k, q)
	slow.Threads = 4
	slow.TaskTimeout = time.Hour
	rs := mustRun(t, g, slow)

	fast := NewOptions(k, q)
	fast.Threads = 4
	fast.TaskTimeout = 5 * time.Microsecond
	rf := mustRun(t, g, fast)

	if rs.Count != rf.Count {
		t.Fatalf("counts differ: %d vs %d", rs.Count, rf.Count)
	}
	if rf.Stats.Splits <= rs.Stats.Splits {
		t.Fatalf("aggressive splitting produced %d splits vs %d", rf.Stats.Splits, rs.Stats.Splits)
	}
}

// TestPruningCountersFire ensures the R1 and upper-bound counters actually
// engage on a workload where pruning matters, so the ablation tables
// measure something real.
func TestPruningCountersFire(t *testing.T) {
	g := gen.ChungLu(1500, 22, 2.2, 33)
	res := mustRun(t, g, NewOptions(3, 16))
	if res.Stats.UBPruned == 0 {
		t.Error("upper-bound pruning never fired")
	}
	if res.Stats.TasksPrunedR1 == 0 {
		t.Error("R1 sub-task pruning never fired")
	}
	if res.Stats.Tasks == 0 || res.Stats.Branches == 0 || res.Stats.Seeds == 0 {
		t.Errorf("counters look dead: %+v", res.Stats)
	}
}

// TestPruningReducesWork compares branch counts between Basic and Ours:
// equal results, strictly less search.
func TestPruningReducesWork(t *testing.T) {
	g := gen.ChungLu(1500, 22, 2.2, 34)
	const k, q = 3, 16
	basic := mustRun(t, g, BasicOptions(k, q))
	ours := mustRun(t, g, NewOptions(k, q))
	if basic.Count != ours.Count {
		t.Fatalf("counts differ: %d vs %d", basic.Count, ours.Count)
	}
	if ours.Stats.Branches >= basic.Stats.Branches {
		t.Fatalf("pruning did not reduce branches: ours=%d basic=%d",
			ours.Stats.Branches, basic.Stats.Branches)
	}
}

// TestOnPlexParallelDelivery checks that a synchronised callback sees
// exactly Count plexes under heavy parallelism.
func TestOnPlexParallelDelivery(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 350
	}
	g := gen.ChungLu(n, 18, 2.25, 35)
	opts := NewOptions(2, 8)
	opts.Threads = 8
	opts.TaskTimeout = 20 * time.Microsecond
	var mu sync.Mutex
	var got int64
	opts.OnPlex = func(p []int) {
		if len(p) < 8 {
			t.Errorf("plex %v below q", p)
		}
		mu.Lock()
		got++
		mu.Unlock()
	}
	res, err := Run(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != res.Count {
		t.Fatalf("callback saw %d, count is %d", got, res.Count)
	}
}

// TestManyThreadsOnTinyGraph exercises the thread-clamping path where
// Threads exceeds the vertex count.
func TestManyThreadsOnTinyGraph(t *testing.T) {
	g := gen.GNP(12, 0.7, 36)
	opts := NewOptions(2, 4)
	opts.Threads = 64
	opts.TaskTimeout = time.Microsecond
	seq := mustRun(t, g, NewOptions(2, 4))
	par := mustRun(t, g, opts)
	if seq.Count != par.Count {
		t.Fatalf("counts differ: %d vs %d", seq.Count, par.Count)
	}
}
