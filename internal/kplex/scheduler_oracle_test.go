package kplex_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kplex"
)

// allSchedulers holds both scheduler constants. They run the same seed
// claim; the oracle grid keeps both so that options carrying either value
// keep giving the oracle's answer.
var allSchedulers = []kplex.SchedulerStyle{
	kplex.SchedulerStages, kplex.SchedulerSteal,
}

// TestSchedulersMatchOracle is the differential grid of the parallel
// runtime: for Planted and SBM graphs × (k, q) × both scheduler constants ×
// both partition styles, the engine must return exactly the plex set of the
// naive Bron-Kerbosch oracle — identical counts and identical sorted sets.
// The runtime decides who runs a task, never what it computes, so any
// divergence here is a lost or duplicated task.
func TestSchedulersMatchOracle(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"planted", gen.Planted(gen.PlantedConfig{
			N: 70, BackgroundP: 0.04, Communities: 4, CommSize: 9,
			DropPerV: 1, Overlap: 2, Seed: 71,
		})},
		{"sbm", gen.SBM(gen.SBMConfig{
			BlockSizes: []int{18, 16, 14}, PIn: 0.7, POut: 0.06, Seed: 72,
		})},
	}
	kqs := []struct{ k, q int }{{2, 4}, {3, 5}}
	if testing.Short() {
		kqs = kqs[:1]
	}
	for _, gc := range graphs {
		for _, kq := range kqs {
			want := baseline.NaiveEnumerate(gc.g, kq.k, kq.q)
			canonicalize(want)
			for _, part := range []kplex.PartitionStyle{kplex.PartitionSubtasks, kplex.PartitionWhole2Hop} {
				for _, sched := range allSchedulers {
					name := fmt.Sprintf("%s/k%dq%d/%v/%v", gc.name, kq.k, kq.q, part, sched)
					t.Run(name, func(t *testing.T) {
						opts := kplex.NewOptions(kq.k, kq.q)
						opts.Threads = 3
						opts.TaskTimeout = 30 * time.Microsecond
						opts.Partition = part
						opts.Scheduler = sched
						got := collect(t, gc.g, opts)
						if len(got) != len(want) {
							t.Fatalf("count %d, oracle %d", len(got), len(want))
						}
						if !equalSets(got, want) {
							t.Fatalf("plex set diverges from oracle")
						}
					})
				}
			}
		}
	}
}

// TestSchedulersAgreeOnLargerGraph cross-checks the parallel runtime
// against the sequential run on a graph too big for the oracle: identical
// sorted plex sets across thread counts and timeout settings.
func TestSchedulersAgreeOnLargerGraph(t *testing.T) {
	n := 600
	if testing.Short() {
		n = 220
	}
	g := gen.ChungLu(n, 16, 2.2, 55)
	const k, q = 2, 8

	want := collect(t, g, kplex.NewOptions(k, q))
	if len(want) == 0 {
		t.Fatal("test graph has no results")
	}

	threadGrid := []int{2, 4}
	tauGrid := []time.Duration{0, 50 * time.Microsecond}
	if testing.Short() {
		threadGrid = threadGrid[1:]
	}
	for _, threads := range threadGrid {
		for _, tau := range tauGrid {
			opts := kplex.NewOptions(k, q)
			opts.Threads = threads
			opts.TaskTimeout = tau
			got := collect(t, g, opts)
			if !equalSets(got, want) {
				t.Errorf("threads=%d tau=%v: plex set diverges (got %d, want %d)",
					threads, tau, len(got), len(want))
			}
		}
	}
}
