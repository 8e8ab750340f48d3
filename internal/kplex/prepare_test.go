package kplex

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/gen"
)

// plexKey canonicalises one plex for set comparison.
func plexKey(p []int) string { return fmt.Sprint(p) }

// collectSet enumerates sequentially and returns the result set keyed
// canonically, so differential tests compare sets, not orderings.
func collectSet(t *testing.T, run func(Options) (Result, error), opts Options) (map[string]bool, Result) {
	t.Helper()
	set := make(map[string]bool)
	opts.Threads = 1
	opts.OnPlex = func(p []int) { set[plexKey(p)] = true }
	res, err := run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(set)) != res.Count {
		t.Fatalf("collected %d distinct plexes, Result.Count=%d", len(set), res.Count)
	}
	return set, res
}

// TestRunPreparedMatchesRun pins RunPrepared to Run over a grid of graphs,
// (k, q) cells and all three parallel schedulers: one shared Prepared
// handle must reproduce exactly the result set and count of the one-shot
// path, sequentially and in parallel.
func TestRunPreparedMatchesRun(t *testing.T) {
	for _, cg := range gen.Corpus()[:4] {
		cg := cg
		g := cg.Build()
		for _, kq := range [][2]int{{2, 5}, {3, 6}} {
			k, q := kq[0], kq[1]
			t.Run(fmt.Sprintf("%s/k%d_q%d", cg.Name, k, q), func(t *testing.T) {
				t.Parallel()
				opts := NewOptions(k, q)
				p, err := Prepare(g, opts)
				if err != nil {
					t.Fatal(err)
				}

				wantSet, wantRes := collectSet(t, func(o Options) (Result, error) {
					return Run(context.Background(), g, o)
				}, opts)
				gotSet, gotRes := collectSet(t, func(o Options) (Result, error) {
					return RunPrepared(context.Background(), p, o)
				}, opts)
				if gotRes.Count != wantRes.Count {
					t.Fatalf("RunPrepared count %d, Run count %d", gotRes.Count, wantRes.Count)
				}
				for key := range wantSet {
					if !gotSet[key] {
						t.Fatalf("RunPrepared missing plex %s", key)
					}
				}

				// Every scheduler over the same shared handle must agree.
				for _, sched := range []SchedulerStyle{SchedulerStages, SchedulerSteal} {
					po := NewOptions(k, q)
					po.Threads = 4
					po.Scheduler = sched
					res, err := RunPrepared(context.Background(), p, po)
					if err != nil {
						t.Fatalf("scheduler %v: %v", sched, err)
					}
					if res.Count != wantRes.Count {
						t.Fatalf("scheduler %v on prepared handle: count %d, want %d", sched, res.Count, wantRes.Count)
					}
				}
			})
		}
	}
}

// TestPreparedHandleConcurrentReuse runs many enumerations over one handle
// at once; the handle is immutable, so they must all succeed and agree.
func TestPreparedHandleConcurrentReuse(t *testing.T) {
	g := gen.GNP(120, 0.15, 11)
	opts := NewOptions(2, 5)
	p, err := Prepare(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunPrepared(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := NewOptions(2, 5)
			o.Threads = 1 + i%3
			o.Scheduler = SchedulerStyle(i % 2)
			res, err := RunPrepared(context.Background(), p, o)
			if err != nil {
				errs <- err
				return
			}
			if res.Count != want.Count {
				errs <- fmt.Errorf("worker %d: count %d, want %d", i, res.Count, want.Count)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPreparedMismatchRejected pins the guard that keeps checkpoint seed
// ids meaningful: running options whose reduction cell differs from the
// handle's must fail loudly, never silently enumerate a different space.
func TestPreparedMismatchRejected(t *testing.T) {
	g := gen.GNP(60, 0.2, 3)
	p, err := Prepare(g, NewOptions(2, 6))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Options{
		NewOptions(3, 6),
		NewOptions(2, 7),
		func() Options { o := NewOptions(2, 6); o.UseCTCP = true; return o }(),
	} {
		if _, err := RunPrepared(context.Background(), p, bad); err == nil {
			t.Fatalf("RunPrepared accepted mismatched options K=%d Q=%d UseCTCP=%v", bad.K, bad.Q, bad.UseCTCP)
		}
		if _, _, err := EnumerateTopKPrepared(context.Background(), p, bad, 5); err == nil {
			t.Fatalf("EnumerateTopKPrepared accepted mismatched options")
		}
		if _, _, err := SizeHistogramPrepared(context.Background(), p, bad); err == nil {
			t.Fatalf("SizeHistogramPrepared accepted mismatched options")
		}
	}
}

// TestPreparedSeedSpaceMatchesSeedSpace pins the wrapper contract: the
// handle's seed space and the one-shot SeedSpace must agree, with and
// without the CTCP reduction.
func TestPreparedSeedSpaceMatchesSeedSpace(t *testing.T) {
	g := gen.GNP(150, 0.1, 5)
	for _, ctcp := range []bool{false, true} {
		opts := NewOptions(2, 6)
		opts.UseCTCP = ctcp
		want, err := SeedSpace(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Prepare(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.SeedSpace(); got != want {
			t.Fatalf("ctcp=%v: Prepared.SeedSpace=%d, SeedSpace=%d", ctcp, got, want)
		}
		if p.K() != 2 || p.Q() != 6 || p.UseCTCP() != ctcp {
			t.Fatalf("ctcp=%v: handle reports K=%d Q=%d UseCTCP=%v", ctcp, p.K(), p.Q(), p.UseCTCP())
		}
	}
}

// TestGoldenCorpusPrepared re-verifies every committed golden cell through
// the prepared path: the (count, max size, plex-set hash) triple must come
// out identical to the one-shot enumeration the files were recorded from.
func TestGoldenCorpusPrepared(t *testing.T) {
	for _, cg := range gen.Corpus() {
		for _, kq := range goldenCombos(cg.Name) {
			cg, k, q := cg, kq[0], kq[1]
			t.Run(fmt.Sprintf("%s/k%d_q%d", cg.Name, k, q), func(t *testing.T) {
				t.Parallel()
				g := cg.Build()
				opts := NewOptions(k, q)
				p, err := Prepare(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				var plexes [][]int
				opts.OnPlex = func(pl []int) { plexes = append(plexes, append([]int(nil), pl...)) }
				res, err := RunPrepared(context.Background(), p, opts)
				if err != nil {
					t.Fatal(err)
				}
				got := goldenCase{
					Graph:   cg.Name,
					K:       k,
					Q:       q,
					Count:   res.Count,
					MaxSize: int(res.Stats.MaxPlexSize),
					SHA256:  canonicalHash(plexes),
				}
				want := readGoldenCase(t, got)
				if got != want {
					t.Errorf("prepared-path golden mismatch\n got: %+v\nwant: %+v", got, want)
				}
			})
		}
	}
}
