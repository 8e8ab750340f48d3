package kplex

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestStealSchedulerBoundedDeque forces tiny deque bounds under both
// schedulers so the overflow path (owner runs tasks inline, during seed
// generation and on splits) is exercised; results must be unaffected.
func TestStealSchedulerBoundedDeque(t *testing.T) {
	g := gen.ChungLu(400, 14, 2.2, 58)
	const k, q = 2, 7
	want := mustRun(t, g, NewOptions(k, q))
	for _, sched := range []SchedulerStyle{SchedulerStages, SchedulerSteal} {
		for _, bound := range []int{1, 2, 16} {
			opts := NewOptions(k, q)
			opts.Threads = 4
			opts.TaskTimeout = time.Microsecond
			opts.Scheduler = sched
			opts.queueBound = bound
			res := mustRun(t, g, opts)
			if res.Count != want.Count {
				t.Errorf("%v bound=%d: count %d, want %d", sched, bound, res.Count, want.Count)
			}
		}
	}
}

// TestTryStealMovesHalf drives the steal mechanics deterministically: a
// thief must take the oldest half of a victim's deque in one batch and
// score the Steals counter, and a round over empty victims must come back
// empty-handed.
func TestTryStealMovesHalf(t *testing.T) {
	e := &engine{}
	e.deques = []*stealDeque{newStealDeque(16), newStealDeque(16)}
	thief := &worker{id: 0, eng: e}
	for i := 0; i < 4; i++ {
		e.deques[1].push(&task{sizeP: i})
	}
	rng := stealRand(1)
	loot := e.trySteal(thief, &rng, nil)
	if len(loot) != 2 || loot[0].sizeP != 0 || loot[1].sizeP != 1 {
		t.Fatalf("trySteal = %v, want the two oldest tasks", loot)
	}
	if thief.stats.Steals != 2 {
		t.Fatalf("Steals = %d, want 2", thief.stats.Steals)
	}
	// Halving continues: 2 left → 1 stolen, 1 left → 1 stolen, then empty.
	for _, want := range []int{1, 1, 0} {
		if loot = e.trySteal(thief, &rng, nil); len(loot) != want {
			t.Fatalf("round stole %d, want %d", len(loot), want)
		}
	}
	if thief.stats.Steals != 4 {
		t.Fatalf("Steals = %d, want 4", thief.stats.Steals)
	}
}

// TestStealSchedulerCountersFire runs the steal scheduler on a
// straggler-heavy workload and reports the counters. Whether tasks
// actually migrate depends on host scheduling, so like the splits test
// below this logs rather than asserts the counter values; correctness of
// the count is still enforced by the differential tests.
func TestStealSchedulerCountersFire(t *testing.T) {
	n, comms := 800, 10
	if testing.Short() {
		n, comms = 300, 4
	}
	g := gen.Planted(gen.PlantedConfig{
		N: n, BackgroundP: 0.004, Communities: comms, CommSize: 22,
		DropPerV: 2, Overlap: 4, Seed: 57,
	})
	opts := NewOptions(3, 9)
	opts.Threads = 4
	opts.TaskTimeout = 20 * time.Microsecond
	opts.Scheduler = SchedulerSteal
	res, err := Run(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Steals == 0 {
		t.Log("no steals observed; every worker stayed busy with its own seeds on this host")
	}
	t.Logf("steals=%d misses=%d splits=%d", res.Stats.Steals, res.Stats.StealMisses, res.Stats.Splits)
}

func TestStealSchedulerCancellation(t *testing.T) {
	g := gen.ChungLu(3000, 25, 2.1, 56)
	opts := NewOptions(3, 9)
	opts.Threads = 4
	opts.TaskTimeout = 50 * time.Microsecond
	opts.Scheduler = SchedulerSteal
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := Run(ctx, g, opts)
	if err == nil {
		t.Skip("run finished before the deadline; nothing to assert")
	}
	if err != context.DeadlineExceeded {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
}

func TestStealDequeOps(t *testing.T) {
	d := newStealDeque(4)
	mk := func(i int) *task { return &task{sizeP: i} }
	for i := 0; i < 4; i++ {
		if !d.push(mk(i)) {
			t.Fatalf("push %d rejected below bound", i)
		}
	}
	if d.push(mk(99)) {
		t.Fatal("push accepted beyond bound")
	}
	if got := d.popBack(); got.sizeP != 3 {
		t.Fatalf("popBack = %d, want 3", got.sizeP)
	}
	// 3 tasks left: steal-half takes the oldest 2, leaves {2}.
	loot := d.stealHalf(nil, 100)
	if len(loot) != 2 || loot[0].sizeP != 0 || loot[1].sizeP != 1 {
		t.Fatalf("stealHalf = %v", loot)
	}
	if got := d.popBack(); got.sizeP != 2 {
		t.Fatalf("popBack after steal = %d, want 2", got.sizeP)
	}
	if d.popBack() != nil {
		t.Fatal("empty deque should return nil")
	}
	if loot := d.stealHalf(nil, 100); len(loot) != 0 {
		t.Fatalf("stealHalf on empty deque = %v", loot)
	}
	// maxTake caps the transfer.
	for i := 0; i < 4; i++ {
		d.push(mk(i))
	}
	if loot := d.stealHalf(nil, 1); len(loot) != 1 || loot[0].sizeP != 0 {
		t.Fatalf("capped stealHalf = %v", loot)
	}
}

func TestSchedulerStyleString(t *testing.T) {
	cases := map[SchedulerStyle]string{
		SchedulerStages:   "stages",
		SchedulerSteal:    "steal",
		SchedulerStyle(9): "SchedulerStyle(9)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

// deadSeedGraph is a seed space that is almost all dead at k=2, q=10
// without CTCP: 3,000 seed ids, of which only 5 build a group (the rest
// are pruned before any task exists), holding 8 maximal 2-plexes.
func deadSeedGraph(t *testing.T) (*graph.Graph, int) {
	t.Helper()
	g := gen.BarabasiAlbert(3000, 8, 21)
	space, err := SeedSpace(g, NewOptions(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	return g, space
}

// TestStagesSchedulerDeadSeedSpace pins the stage scheduler on a seed
// space where dead seeds outnumber live groups by 600 to 1: a stage holds
// M live groups, so workers claim past pruned and skipped seeds without
// a barrier each. Counts, per-seed reporting and the skip-set partition
// must be exactly those of the sequential run.
func TestStagesSchedulerDeadSeedSpace(t *testing.T) {
	g, space := deadSeedGraph(t)
	want := mustRun(t, g, NewOptions(2, 10))
	if want.Count != 8 {
		t.Fatalf("sequential count %d, want 8", want.Count)
	}
	if space < 100*int(want.Stats.Seeds) {
		t.Fatalf("seed space %d vs %d live groups: no longer a dead seed space", space, want.Stats.Seeds)
	}
	evens, odds := NewSeedSet(), NewSeedSet()
	for s := 0; s < space; s++ {
		if s%2 == 0 {
			evens.Add(s)
		} else {
			odds.Add(s)
		}
	}
	for _, threads := range []int{2, 3, 4} {
		for _, tau := range []time.Duration{0, 50 * time.Microsecond} {
			t.Run(fmt.Sprintf("threads=%d/tau=%v", threads, tau), func(t *testing.T) {
				run := func(skip *SeedSet) (Result, *seedRecorder) {
					opts := NewOptions(2, 10)
					opts.Threads = threads
					opts.TaskTimeout = tau
					opts.Scheduler = SchedulerStages
					opts.SkipSeeds = skip
					rec := newSeedRecorder()
					rec.install(&opts)
					return mustRun(t, g, opts), rec
				}
				full, rec := run(nil)
				if full.Count != want.Count {
					t.Errorf("count %d, want %d", full.Count, want.Count)
				}
				if rec.repeats != 0 || len(rec.partials) != space {
					t.Errorf("OnSeedDone reported %d distinct seeds (%d repeats), want each of %d once", len(rec.partials), rec.repeats, space)
				}
				for s := range rec.partials {
					if s < 0 || s >= space {
						t.Errorf("OnSeedDone reported seed %d outside [0, %d)", s, space)
					}
				}

				oddRun, oddRec := run(evens)
				evenRun, evenRec := run(odds)
				if got := oddRun.Count + evenRun.Count; got != want.Count {
					t.Errorf("halves sum to %d, want %d", got, want.Count)
				}
				for s := range oddRec.partials {
					if evens.Contains(s) {
						t.Errorf("skipped seed %d was reported", s)
					}
				}
				for s := range evenRec.partials {
					if odds.Contains(s) {
						t.Errorf("skipped seed %d was reported", s)
					}
				}
				if n := len(oddRec.partials) + len(evenRec.partials); n != space {
					t.Errorf("halves reported %d seeds, want %d", n, space)
				}
			})
		}
	}
}

// TestStagesSchedulerCancelDeadSeeds cancels stage runs while the workers
// are claiming through the dead seed space: the run must stop claiming,
// return the context error and leave no goroutine behind. The live groups
// are skipped, so no worker can leave the claim loop by building one, and
// the seed hook sleeps briefly, so claiming the whole space takes far
// longer than the cancellation needs to land.
func TestStagesSchedulerCancelDeadSeeds(t *testing.T) {
	g, space := deadSeedGraph(t)
	p, err := Prepare(g, NewOptions(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	probe := NewOptions(2, 10)
	rec := newSeedRecorder()
	rec.install(&probe)
	if _, err := RunPrepared(context.Background(), p, probe); err != nil {
		t.Fatal(err)
	}
	live := NewSeedSet()
	for s, partial := range rec.partials {
		if partial.Seeds > 0 {
			live.Add(s)
		}
	}
	for _, tc := range []struct {
		name    string
		ctx     func() (context.Context, context.CancelFunc)
		afterN  int64 // cancel from OnSeedDone after this many seeds (0: never)
		wantErr error
	}{
		{"deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), time.Millisecond)
		}, 0, context.DeadlineExceeded},
		{"cancel-after-64-seeds", func() (context.Context, context.CancelFunc) {
			return context.WithCancel(context.Background())
		}, 64, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := tc.ctx()
			defer cancel()
			var reported atomic.Int64
			opts := NewOptions(2, 10)
			opts.Threads = 4
			opts.TaskTimeout = 50 * time.Microsecond
			opts.Scheduler = SchedulerStages
			opts.SkipSeeds = live
			opts.OnSeedDone = func(int, Stats) {
				if reported.Add(1) == tc.afterN {
					cancel()
				}
				time.Sleep(50 * time.Microsecond)
			}
			_, err := RunPrepared(ctx, p, opts)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if n := reported.Load(); n >= int64(space/2) {
				t.Errorf("%d of %d seeds reported: the claim loop did not stop at the cancellation", n, space)
			}
			waitGoroutines(t, base, 0)
		})
	}
}
