package kplex

// Regression tests for the dead-on-arrival context contract on the entry
// points added after the original Run fix: a context cancelled before the
// call must return ctx.Err() without executing any prefix of the search —
// no seed built, no branch taken, no result delivered. The observable bar
// is Stats.Seeds == 0 and an OnPlex hook that never fires; the asynchronous
// watcher alone used to let an arbitrary prefix run before the first poll.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
)

func preCancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestRunPreparedPreCancelled(t *testing.T) {
	g := gen.GNP(300, 0.25, 9)
	opts := NewOptions(3, 6)
	p, err := Prepare(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	opts.OnPlex = func([]int) { fired.Add(1) }
	res, err := RunPrepared(preCancelled(), p, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Count != 0 || res.Stats.Seeds != 0 || res.Stats.Branches != 0 {
		t.Errorf("pre-cancelled RunPrepared did work: %+v", res.Stats)
	}
	if fired.Load() != 0 {
		t.Errorf("OnPlex fired %d times on a dead context", fired.Load())
	}
}

func TestRunStreamPreparedPreCancelled(t *testing.T) {
	g := gen.GNP(300, 0.25, 9)
	opts := NewOptions(3, 6)
	p, err := Prepare(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := RunStreamPrepared(preCancelled(), p, opts)
	if err != nil {
		t.Fatal(err) // the handle contract: errors arrive via Wait
	}
	n := 0
	for range h.C() {
		n++
	}
	res, err := h.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait err = %v, want context.Canceled", err)
	}
	if n != 0 {
		t.Errorf("pre-cancelled stream delivered %d plexes", n)
	}
	if res.Stats.Seeds != 0 || res.Stats.Branches != 0 {
		t.Errorf("pre-cancelled stream did work: %+v", res.Stats)
	}
}

func TestRunBatchPreCancelled(t *testing.T) {
	g := gen.GNP(200, 0.2, 11)
	var fired atomic.Int64
	mk := func(q int) BatchQuery {
		o := NewOptions(2, q)
		o.OnPlex = func([]int) { fired.Add(1) }
		return BatchQuery{Opts: o, Mode: BatchCount}
	}
	res, err := RunBatch(preCancelled(), g, []BatchQuery{mk(6), mk(8)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("pre-cancelled batch returned results: %v", res)
	}
	if fired.Load() != 0 {
		t.Errorf("OnPlex fired %d times on a dead context", fired.Load())
	}
}

// TestRunBatchCancelledBetweenGroups pins the mid-batch gap: a context that
// dies while group 1 runs must stop the batch before group 2's prologue is
// paid (runGroup used to call Prepare before its first cancellation check).
func TestRunBatchCancelledBetweenGroups(t *testing.T) {
	g := gen.GNP(200, 0.2, 11)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Two groups: k=2 and k=3 cannot share a walk. Cancel as soon as the
	// first group's results land.
	queries := []BatchQuery{
		{Opts: NewOptions(2, 6), Mode: BatchCount},
		{Opts: NewOptions(3, 7), Mode: BatchCount},
	}
	var prepared atomic.Int64
	br := &BatchRunner{
		Prepare: func(cell *Options) (*Prepared, error) {
			prepared.Add(1)
			return Prepare(g, *cell)
		},
		OnResult: func(i int, r *BatchResult) { cancel() },
	}
	_, err := br.Run(ctx, g, queries)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := prepared.Load(); n != 1 {
		t.Errorf("cancelled batch prepared %d groups, want 1 (second group's prologue must not start)", n)
	}
}
