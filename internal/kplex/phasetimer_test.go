package kplex_test

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/kplex"
)

// TestPhaseTimers pins the Options.PhaseTimers contract: off (the
// default) the phase counters stay exactly zero — the hot path must not
// pay for them — and on, both phases report non-zero wall time on a
// non-trivial graph while the result set stays byte-identical.
func TestPhaseTimers(t *testing.T) {
	g := gen.ChungLu(400, 12, 2.4, 7)
	base := kplex.NewOptions(2, 5)

	off, err := kplex.Run(context.Background(), g, base)
	if err != nil {
		t.Fatal(err)
	}
	if off.Stats.SeedBuildNS != 0 || off.Stats.BranchNS != 0 {
		t.Fatalf("PhaseTimers off must report zero phase time, got build=%d branch=%d",
			off.Stats.SeedBuildNS, off.Stats.BranchNS)
	}

	timed := base
	timed.PhaseTimers = true
	on, err := kplex.Run(context.Background(), g, timed)
	if err != nil {
		t.Fatal(err)
	}
	if on.Count != off.Count {
		t.Fatalf("PhaseTimers changed the result: %d vs %d plexes", on.Count, off.Count)
	}
	if on.Stats.SeedBuildNS <= 0 || on.Stats.BranchNS <= 0 {
		t.Fatalf("PhaseTimers on: build=%dns branch=%dns, want both > 0",
			on.Stats.SeedBuildNS, on.Stats.BranchNS)
	}
	// Phase time is wall time inside the enumeration: each phase alone
	// must not exceed total elapsed (single-threaded run).
	if elapsed := on.Elapsed.Nanoseconds(); on.Stats.SeedBuildNS > elapsed || on.Stats.BranchNS > elapsed {
		t.Fatalf("phase time exceeds elapsed: build=%d branch=%d elapsed=%d",
			on.Stats.SeedBuildNS, on.Stats.BranchNS, elapsed)
	}

	// The knob is execution-only: it must not fork the result cache.
	if base.ResultKey() != timed.ResultKey() {
		t.Fatalf("PhaseTimers leaked into ResultKey: %q vs %q", base.ResultKey(), timed.ResultKey())
	}
}

// TestPhaseTimersParallel checks the counters accumulate across scheduler
// workers and survive Stats.Add folding.
func TestPhaseTimersParallel(t *testing.T) {
	g := gen.ChungLu(400, 12, 2.4, 7)
	for _, sched := range []kplex.SchedulerStyle{kplex.SchedulerStages, kplex.SchedulerSteal} {
		opts := kplex.NewOptions(2, 5)
		opts.Threads = 4
		opts.Scheduler = sched
		opts.TaskTimeout = microseconds(2000)
		opts.PhaseTimers = true
		res, err := kplex.Run(context.Background(), g, opts)
		if err != nil {
			t.Fatalf("%v: %v", sched, err)
		}
		if res.Stats.SeedBuildNS <= 0 || res.Stats.BranchNS <= 0 {
			t.Fatalf("%v: build=%dns branch=%dns, want both > 0", sched, res.Stats.SeedBuildNS, res.Stats.BranchNS)
		}
	}

	var sum kplex.Stats
	sum.Add(kplex.Stats{SeedBuildNS: 3, BranchNS: 5})
	sum.Add(kplex.Stats{SeedBuildNS: 4, BranchNS: 6})
	if sum.SeedBuildNS != 7 || sum.BranchNS != 11 {
		t.Fatalf("Stats.Add dropped phase timers: %+v", sum)
	}
}
