package kplex

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
)

// testSchedulers enumerates the execution strategies the checkpoint hooks
// must behave identically under.
var testSchedulers = []struct {
	name    string
	apply   func(*Options)
	threads int
}{
	{"sequential", func(o *Options) {}, 1},
	{"stages", func(o *Options) { o.Scheduler = SchedulerStages }, 4},
	{"steal", func(o *Options) { o.Scheduler = SchedulerSteal }, 4},
}

func TestSeedSetBasics(t *testing.T) {
	s := NewSeedSet(3, 70, 3)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Contains(3) || !s.Contains(70) || s.Contains(4) || s.Contains(-1) {
		t.Fatal("membership wrong")
	}
	if s.Max() != 70 {
		t.Fatalf("Max = %d, want 70", s.Max())
	}
	if got := s.Seeds(); len(got) != 2 || got[0] != 3 || got[1] != 70 {
		t.Fatalf("Seeds = %v", got)
	}
	var empty *SeedSet
	if empty.Len() != 0 || empty.Max() != -1 || empty.Contains(0) {
		t.Fatal("nil set must behave as empty")
	}
	if NewSeedSet(1).digest() == NewSeedSet(2).digest() {
		t.Fatal("distinct sets share a digest")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) must panic")
		}
	}()
	s.Add(-1)
}

func TestValidateSeedHookCombinations(t *testing.T) {
	o := NewOptions(2, 6)
	o.FirstOnly = true
	o.OnSeedDone = func(int, Stats) {}
	if err := o.Validate(); err == nil {
		t.Error("OnSeedDone+FirstOnly must be rejected")
	}
	o = NewOptions(2, 6)
	o.FirstOnly = true
	o.OnPlexSeed = func(int, []int) {}
	if err := o.Validate(); err == nil {
		t.Error("OnPlexSeed+FirstOnly must be rejected")
	}
	o = NewOptions(2, 6)
	o.SkipSeeds = NewSeedSet(1, 2)
	if err := o.Validate(); err == nil {
		t.Error("SkipSeeds without any hook must be rejected")
	}
	o.OnSeedDone = func(int, Stats) {}
	if err := o.Validate(); err != nil {
		t.Errorf("SkipSeeds with OnSeedDone: %v", err)
	}
}

func TestSkipSeedsOutOfRange(t *testing.T) {
	g := gen.Planted(gen.PlantedConfig{N: 60, BackgroundP: 0.02, Communities: 2, CommSize: 10, DropPerV: 1, Seed: 7})
	total, err := SeedSpace(g, NewOptions(2, 6))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptions(2, 6)
	o.SkipSeeds = NewSeedSet(total) // first invalid id
	o.OnSeedDone = func(int, Stats) {}
	if _, err := Run(context.Background(), g, o); err == nil {
		t.Fatalf("SkipSeeds entry %d >= SeedSpace %d must fail the run", total, total)
	}
}

func TestResultKeyReflectsSkipSeeds(t *testing.T) {
	a := NewOptions(2, 6)
	b := NewOptions(2, 6)
	b.SkipSeeds = NewSeedSet(5)
	c := NewOptions(2, 6)
	c.SkipSeeds = NewSeedSet(6)
	if a.ResultKey() == b.ResultKey() || b.ResultKey() == c.ResultKey() {
		t.Fatalf("ResultKey must distinguish skip sets: %q %q %q",
			a.ResultKey(), b.ResultKey(), c.ResultKey())
	}
}

// seedRecorder collects the per-seed observations of one hooked run.
type seedRecorder struct {
	mu       sync.Mutex
	partials map[int]Stats
	plexes   map[int]int64
	repeats  int // OnSeedDone fired twice for a seed (always a bug)
}

func newSeedRecorder() *seedRecorder {
	return &seedRecorder{partials: make(map[int]Stats), plexes: make(map[int]int64)}
}

func (r *seedRecorder) install(o *Options) {
	o.OnSeedDone = func(seed int, partial Stats) {
		r.mu.Lock()
		if _, dup := r.partials[seed]; dup {
			r.repeats++
		}
		r.partials[seed] = partial
		r.mu.Unlock()
	}
	o.OnPlexSeed = func(seed int, _ []int) {
		r.mu.Lock()
		r.plexes[seed]++
		r.mu.Unlock()
	}
}

// TestSeedHooksAccounting pins the core contract on every scheduler:
// OnSeedDone fires exactly once per seed, the per-seed Emitted counters sum
// to the run's count, and OnPlexSeed deliveries agree with them seed by
// seed.
func TestSeedHooksAccounting(t *testing.T) {
	g := gen.Planted(gen.PlantedConfig{N: 120, BackgroundP: 0.02, Communities: 4, CommSize: 12, DropPerV: 1, Overlap: 2, Seed: 41})
	base := NewOptions(2, 6)
	total, err := SeedSpace(g, base)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(context.Background(), g, base)
	if err != nil {
		t.Fatal(err)
	}

	for _, sc := range testSchedulers {
		t.Run(sc.name, func(t *testing.T) {
			opts := NewOptions(2, 6)
			sc.apply(&opts)
			opts.Threads = sc.threads
			rec := newSeedRecorder()
			rec.install(&opts)
			res, err := Run(context.Background(), g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != ref.Count {
				t.Fatalf("count %d, want %d", res.Count, ref.Count)
			}
			if rec.repeats != 0 {
				t.Fatalf("OnSeedDone fired more than once for %d seeds", rec.repeats)
			}
			if len(rec.partials) != total {
				t.Fatalf("OnSeedDone reported %d seeds, SeedSpace is %d", len(rec.partials), total)
			}
			var emitted, maxSize int64
			for seed, p := range rec.partials {
				emitted += p.Emitted
				if p.MaxPlexSize > maxSize {
					maxSize = p.MaxPlexSize
				}
				if p.Emitted != rec.plexes[seed] {
					t.Fatalf("seed %d: partial.Emitted=%d but OnPlexSeed delivered %d", seed, p.Emitted, rec.plexes[seed])
				}
			}
			if emitted != ref.Count {
				t.Fatalf("sum of per-seed Emitted = %d, want %d", emitted, ref.Count)
			}
			if maxSize != ref.Stats.MaxPlexSize {
				t.Fatalf("max of per-seed MaxPlexSize = %d, want %d", maxSize, ref.Stats.MaxPlexSize)
			}
		})
	}
}

// TestSeedHooksWithSplitting forces the timeout splitter on so split tasks
// exercise the outstanding-count path (a split must keep its group open
// until the stolen half finishes too).
func TestSeedHooksWithSplitting(t *testing.T) {
	g := gen.Planted(gen.PlantedConfig{N: 150, BackgroundP: 0.015, Communities: 6, CommSize: 10, DropPerV: 2, Overlap: 3, Seed: 42})
	ref, err := Run(context.Background(), g, NewOptions(2, 6))
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []SchedulerStyle{SchedulerStages, SchedulerSteal} {
		opts := NewOptions(2, 6)
		opts.Threads = 4
		opts.Scheduler = sched
		opts.TaskTimeout = 1 // nanosecond: split at every opportunity
		rec := newSeedRecorder()
		rec.install(&opts)
		res, err := Run(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		var emitted int64
		for _, p := range rec.partials {
			emitted += p.Emitted
		}
		if res.Count != ref.Count || emitted != ref.Count {
			t.Fatalf("%v: count=%d, per-seed sum=%d, want %d", sched, res.Count, emitted, ref.Count)
		}
	}
}

// TestCancelledRunReportsOnlyCompleteSeeds pins the crash-safety half of
// the OnSeedDone contract: a run cancelled mid-flight may under-report
// seeds (they re-run on resume), but every seed it DOES report must carry
// its complete contribution — a truncated group reported as done would
// silently lose plexes forever. The cancel lands at a random point via an
// OnPlexSeed trigger; several rounds push it into different phases.
func TestCancelledRunReportsOnlyCompleteSeeds(t *testing.T) {
	g := gen.Planted(gen.PlantedConfig{N: 150, BackgroundP: 0.015, Communities: 6, CommSize: 10, DropPerV: 2, Overlap: 3, Seed: 42})

	// Ground truth per-seed counts.
	full := NewOptions(2, 6)
	fullRec := newSeedRecorder()
	fullRec.install(&full)
	if _, err := Run(context.Background(), g, full); err != nil {
		t.Fatal(err)
	}

	for _, sc := range testSchedulers {
		t.Run(sc.name, func(t *testing.T) {
			for round := 0; round < 5; round++ {
				opts := NewOptions(2, 6)
				sc.apply(&opts)
				opts.Threads = sc.threads
				opts.TaskTimeout = 1 // maximise in-flight tasks per group
				rec := newSeedRecorder()
				rec.install(&opts)
				ctx, cancel := context.WithCancel(context.Background())
				var plexes atomic.Int64
				after := int64(1 + round*7)
				prev := opts.OnPlexSeed
				opts.OnPlexSeed = func(seed int, p []int) {
					prev(seed, p)
					if plexes.Add(1) == after {
						cancel()
					}
				}
				_, err := Run(ctx, g, opts)
				cancel()
				if err == nil {
					// The run finished before the trigger; still a valid
					// round (all seeds complete).
					continue
				}
				for seed, partial := range rec.partials {
					if want := fullRec.partials[seed].Emitted; partial.Emitted != want {
						t.Fatalf("round %d: cancelled run reported seed %d with %d plexes, complete group has %d",
							round, seed, partial.Emitted, want)
					}
				}
			}
		})
	}
}

// TestSkipSeedsPartition splits the seed space in two and checks that the
// two complementary runs partition the full result set exactly — the
// property resume correctness rests on.
func TestSkipSeedsPartition(t *testing.T) {
	g := gen.SBM(gen.SBMConfig{BlockSizes: []int{25, 30, 35}, PIn: 0.45, POut: 0.04, Seed: 43})
	base := NewOptions(2, 6)
	total, err := SeedSpace(g, base)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: per-seed emitted counts of a full run.
	full := NewOptions(2, 6)
	fullRec := newSeedRecorder()
	fullRec.install(&full)
	fullRes, err := Run(context.Background(), g, full)
	if err != nil {
		t.Fatal(err)
	}

	evens, odds := NewSeedSet(), NewSeedSet()
	for s := 0; s < total; s++ {
		if s%2 == 0 {
			evens.Add(s)
		} else {
			odds.Add(s)
		}
	}

	for _, sc := range testSchedulers {
		t.Run(sc.name, func(t *testing.T) {
			runHalf := func(skip *SeedSet) (int64, map[int]Stats) {
				opts := NewOptions(2, 6)
				sc.apply(&opts)
				opts.Threads = sc.threads
				opts.SkipSeeds = skip
				rec := newSeedRecorder()
				rec.install(&opts)
				res, err := Run(context.Background(), g, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res.Count, rec.partials
			}
			cEven, pEven := runHalf(evens) // ran the odd seeds
			cOdd, pOdd := runHalf(odds)    // ran the even seeds
			if cEven+cOdd != fullRes.Count {
				t.Fatalf("halves sum to %d, full run found %d", cEven+cOdd, fullRes.Count)
			}
			if len(pEven)+len(pOdd) != total {
				t.Fatalf("halves reported %d+%d seeds, want %d", len(pEven), len(pOdd), total)
			}
			for seed, p := range fullRec.partials {
				var got Stats
				var ok bool
				if seed%2 == 0 {
					got, ok = pOdd[seed]
				} else {
					got, ok = pEven[seed]
				}
				if !ok {
					t.Fatalf("seed %d missing from its half", seed)
				}
				if got.Emitted != p.Emitted {
					t.Fatalf("seed %d: half emitted %d, full run %d", seed, got.Emitted, p.Emitted)
				}
			}
		})
	}
}
