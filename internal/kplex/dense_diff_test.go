package kplex

// Differential grid pinning the dense bit-parallel seed kernel against the
// merge kernel it replaces under the dense ceiling (Options.denseCrossover).
// Core-style peels are confluent — the survivor set is the unique maximal
// subset meeting the threshold — so the two paths must agree exactly: same
// counts, same canonical plex-set digests, same top-k lists, on every
// corpus graph, every (k, q) cell, and every scheduler. A dense-kernel bug
// that drops or duplicates even one plex changes a digest here before it
// reaches the committed golden files.

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/gen"
)

// denseCell is the observable signature of one enumeration run.
type denseCell struct {
	Count   int64
	MaxSize int
	SHA256  string
	TopK    [][]int
}

// runDenseCell enumerates one (graph, k, q, scheduler, crossover) cell and
// returns its signature plus the run's stats.
func runDenseCell(t *testing.T, g *gen.CorpusGraph, k, q int, sched SchedulerStyle, threads, crossover int) (denseCell, Stats) {
	t.Helper()
	opts := NewOptions(k, q)
	opts.Threads = threads
	opts.Scheduler = sched
	opts.denseCrossover = crossover
	var mu sync.Mutex
	var plexes [][]int
	opts.OnPlex = func(p []int) {
		cp := append([]int(nil), p...)
		mu.Lock()
		plexes = append(plexes, cp)
		mu.Unlock()
	}
	res, err := Run(context.Background(), g.Build(), opts)
	if err != nil {
		t.Fatalf("%s k=%d q=%d sched=%v crossover=%d: %v", g.Name, k, q, sched, crossover, err)
	}
	var h plexHeap
	for _, p := range plexes {
		h.topkOffer(p, 5)
	}
	return denseCell{
		Count:   res.Count,
		MaxSize: int(res.Stats.MaxPlexSize),
		SHA256:  canonicalHash(plexes),
		TopK:    h.topkSorted(),
	}, res.Stats
}

// TestDenseMergeDifferentialGrid sweeps corpus × (k, q) × scheduler,
// running every cell once with the dense kernel forced on (the corpus
// graphs all sit under DefaultDenseCrossover) and once with it disabled
// (denseCrossover = -1, merge only), and requires identical signatures.
// The (k, q) cells come from goldenCombos plus a q > 2k cell per graph so
// the Corollary 5.2 peel — the code the two kernels actually disagree on
// when buggy — is live (thrN1 = q-2k must be positive for either peel to
// run at all).
func TestDenseMergeDifferentialGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep")
	}
	for _, cg := range gen.Corpus() {
		cg := cg
		t.Run(cg.Name, func(t *testing.T) {
			t.Parallel()
			g := &cg
			cells := append(goldenCombos(cg.Name), [2]int{2, 7}) // q=7 > 2k=4: peel live
			for _, kq := range cells {
				k, q := kq[0], kq[1]
				for _, run := range []struct {
					sched   SchedulerStyle
					threads int
				}{
					{SchedulerStages, 1}, // sequential path
					{SchedulerStages, 2},
					{SchedulerSteal, 3},
				} {
					sched, threads := run.sched, run.threads
					label := fmt.Sprintf("k=%d q=%d sched=%v threads=%d", k, q, sched, threads)

					dense, denseStats := runDenseCell(t, g, k, q, sched, threads, 0)
					merge, mergeStats := runDenseCell(t, g, k, q, sched, threads, -1)

					if !reflect.DeepEqual(dense, merge) {
						t.Errorf("%s: dense and merge kernels diverge\ndense: %+v\nmerge: %+v", label, dense, merge)
					}
					if q > 2*k && denseStats.Seeds > 0 && denseStats.DenseBuilds == 0 {
						t.Errorf("%s: dense run built %d seeds through the merge path (DenseBuilds=0); the grid is not exercising the kernel", label, denseStats.Seeds)
					}
					if mergeStats.DenseBuilds != 0 {
						t.Errorf("%s: denseCrossover=-1 still took the dense path %d times", label, mergeStats.DenseBuilds)
					}
				}
			}
		})
	}
}

// TestDenseCrossoverNotInResultKey pins that the dense ceiling is
// execution-only: two option sets differing only in kernel choice must
// share a batch group (identical ResultKey), because the kernels are
// equivalent by construction.
func TestDenseCrossoverNotInResultKey(t *testing.T) {
	a := NewOptions(2, 6)
	b := NewOptions(2, 6)
	b.denseCrossover = -1
	if a.ResultKey() != b.ResultKey() {
		t.Fatal("denseCrossover leaked into ResultKey; kernel routing must not change result identity")
	}
}
