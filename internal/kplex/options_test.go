package kplex

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Options)
		wantErr string
	}{
		{"default ok", func(o *Options) {}, ""},
		{"k zero", func(o *Options) { o.K = 0 }, "K must be"},
		{"k negative", func(o *Options) { o.K = -2 }, "K must be"},
		{"q below 2k-1", func(o *Options) { o.K = 3; o.Q = 4 }, "Q must be"},
		{"q exactly 2k-1", func(o *Options) { o.K = 3; o.Q = 5 }, ""},
		{"negative timeout", func(o *Options) { o.TaskTimeout = -time.Second }, "TaskTimeout"},
	}
	for _, c := range cases {
		o := NewOptions(2, 5)
		c.mutate(&o)
		err := o.Validate()
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error = %v, want containing %q", c.name, err, c.wantErr)
		}
	}
}

func TestRunRejectsInvalidOptions(t *testing.T) {
	g := gen.GNP(10, 0.5, 1)
	if _, err := Run(context.Background(), g, Options{K: 2, Q: 1}); err == nil {
		t.Fatal("Run accepted Q < 2K-1")
	}
}

func TestEnumConstantsString(t *testing.T) {
	pairs := []struct {
		got, want string
	}{
		{UBNone.String(), "none"},
		{UBOurs.String(), "ours"},
		{UBSortFP.String(), "fp-sort"},
		{UpperBoundStyle(99).String(), "UpperBoundStyle(99)"},
		{BranchRepick.String(), "repick"},
		{BranchFaPlexen.String(), "faplexen"},
		{BranchingStyle(7).String(), "BranchingStyle(7)"},
		{PartitionSubtasks.String(), "subtasks"},
		{PartitionWhole2Hop.String(), "whole-2hop"},
		{PartitionStyle(7).String(), "PartitionStyle(7)"},
	}
	for _, p := range pairs {
		if p.got != p.want {
			t.Errorf("String() = %q, want %q", p.got, p.want)
		}
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Seeds: 1, Tasks: 2, TasksPrunedR1: 3, Branches: 4, UBPruned: 5, Splits: 6, Emitted: 7}
	b := a
	a.Add(b)
	if a.Seeds != 2 || a.Tasks != 4 || a.TasksPrunedR1 != 6 || a.Branches != 8 ||
		a.UBPruned != 10 || a.Splits != 12 || a.Emitted != 14 {
		t.Fatalf("Add produced %+v", a)
	}
}

func TestContextCancellation(t *testing.T) {
	// A dense graph with a large result set: cancel immediately and expect
	// an early, error-bearing return.
	g := gen.GNP(300, 0.25, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := NewOptions(3, 6)
	start := time.Now()
	_, err := Run(ctx, g, opts)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatalf("cancelled run took %v", time.Since(start))
	}
}

// TestContextCancellationParallel stops result-heavy runs by deadline
// under both schedulers. The run must return promptly: seed task
// generation polls the stop flag, so tasks that overflow a deque and run
// inline cannot keep a cancelled worker busy. And a seed the cancelled run
// reports done must carry exactly the plexes a run over that seed alone
// attributes to it, so a group whose generation was cut short is never
// committed. No seed of the dense graph finishes before its deadline; the
// sparse one finishes a few live groups and leaves others mid-flight.
func TestContextCancellationParallel(t *testing.T) {
	graphs := []struct {
		name     string
		g        *graph.Graph
		k, q     int
		deadline time.Duration
	}{
		{"gnp-dense", gen.GNP(300, 0.25, 9), 3, 6, 50 * time.Millisecond},
		{"chunglu", gen.ChungLu(3000, 25, 2.1, 56), 3, 9, 20 * time.Millisecond},
	}
	for _, gc := range graphs {
		p, err := Prepare(gc.g, NewOptions(gc.k, gc.q))
		if err != nil {
			t.Fatal(err)
		}
		for _, sched := range []SchedulerStyle{SchedulerStages, SchedulerSteal} {
			t.Run(gc.name+"/"+sched.String(), func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), gc.deadline)
				defer cancel()
				opts := NewOptions(gc.k, gc.q)
				opts.Threads = 4
				opts.TaskTimeout = 100 * time.Microsecond
				opts.Scheduler = sched
				// A one-task deque sends nearly every task inline: the path
				// on which a cut generation retires its group's last unit.
				opts.queueBound = 1
				rec := newSeedRecorder()
				rec.install(&opts)
				start := time.Now()
				_, err := RunPrepared(ctx, p, opts)
				if elapsed := time.Since(start); elapsed > 3*time.Second {
					t.Fatalf("cancelled parallel run took %v", elapsed)
				}
				if err == nil {
					// The run may legitimately beat the deadline on a fast
					// machine; the latency bound above is the real check.
					return
				}
				if rec.repeats != 0 {
					t.Fatalf("OnSeedDone fired twice for %d seeds", rec.repeats)
				}
				// Re-enumerate exactly the reported seeds, sequentially and
				// uncancelled, and compare their deliveries seed by seed.
				skip := NewSeedSet()
				for s := 0; s < p.SeedSpace(); s++ {
					if _, done := rec.partials[s]; !done {
						skip.Add(s)
					}
				}
				refOpts := NewOptions(gc.k, gc.q)
				refOpts.SkipSeeds = skip
				ref := newSeedRecorder()
				ref.install(&refOpts)
				if _, err := RunPrepared(context.Background(), p, refOpts); err != nil {
					t.Fatal(err)
				}
				for s, partial := range rec.partials {
					if got, want := rec.plexes[s], ref.plexes[s]; got != want {
						t.Errorf("seed %d reported done with %d plexes, want %d", s, got, want)
					}
					if got, want := partial.Emitted, ref.partials[s].Emitted; got != want {
						t.Errorf("seed %d reported Emitted=%d, want %d", s, got, want)
					}
				}
			})
		}
	}
}

func TestMaxPlexSizeStat(t *testing.T) {
	// Planted community of 12 as a 2-plex: the stat must report 12.
	g := gen.Planted(gen.PlantedConfig{
		N: 200, BackgroundP: 0.02, Communities: 1, CommSize: 12, DropPerV: 1, Seed: 8,
	})
	res := mustRun(t, g, NewOptions(2, 5))
	if res.Stats.MaxPlexSize < 12 {
		t.Fatalf("MaxPlexSize = %d, want >= 12", res.Stats.MaxPlexSize)
	}
	none := mustRun(t, g, NewOptions(2, 50))
	if none.Stats.MaxPlexSize != 0 || none.Count != 0 {
		t.Fatalf("empty result should leave MaxPlexSize 0, got %d", none.Stats.MaxPlexSize)
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3} {
		g := gen.GNP(n, 1, 1) // complete graph on n vertices
		res := mustRun(t, g, NewOptions(2, 3))
		want := int64(0)
		if n == 3 {
			want = 1 // the triangle itself
		}
		if res.Count != want {
			t.Fatalf("n=%d: count = %d, want %d", n, res.Count, want)
		}
	}
}
