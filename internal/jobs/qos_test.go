package jobs

// QoS-facing behavior of the job layer: weighted-fair tenant scheduling of
// the queue, resumable submissions born from a partial answer, and the
// per-incarnation ETA rate (a resumed job must not fold previous
// incarnations' seeds into this run's speed estimate).

import (
	"container/heap"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/kplex"
	"repro/internal/obs"
)

// TestTenantStridePop drives enqueueLocked/popLocked directly: with gold at
// weight 3 and bronze at weight 1, a drained backlog must start gold jobs
// three times as often, and the exact stride order is deterministic.
func TestTenantStridePop(t *testing.T) {
	m := &Manager{
		cfg: Config{TenantWeight: func(tenant string) float64 {
			if tenant == "gold" {
				return 3
			}
			return 1
		}},
		jobs:     make(map[string]*job),
		queues:   make(map[string]*tenantQueue),
		counters: newCounters(obs.NewRegistry(), localExecutor{}),
	}
	m.cond = sync.NewCond(&m.mu)

	mk := func(tenant string, i int) *job {
		return &job{man: Manifest{ID: tenant + string(rune('0'+i)), Spec: Spec{Tenant: tenant}, CreatedAt: time.Unix(int64(i), 0)}}
	}
	m.mu.Lock()
	for i := 0; i < 6; i++ {
		m.enqueueLocked(mk("gold", i))
	}
	for i := 0; i < 2; i++ {
		m.enqueueLocked(mk("bronze", i))
	}
	var order []string
	for m.queued > 0 {
		order = append(order, m.popLocked().man.Spec.Tenant)
	}
	m.mu.Unlock()

	// Both tenants start at pass 0; bronze wins the tie by name, then gold's
	// 1/3 stride packs three starts per bronze start.
	want := []string{"bronze", "gold", "gold", "gold", "bronze", "gold", "gold", "gold"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want %v", order, want)
		}
	}

	// A lone tenant must drain in plain heap (priority/FIFO) order.
	m.mu.Lock()
	hi := mk("solo", 0)
	hi.man.Spec.Priority = 9
	lo := mk("solo", 1)
	m.enqueueLocked(lo)
	m.enqueueLocked(hi)
	first, second := m.popLocked(), m.popLocked()
	m.mu.Unlock()
	if first != hi || second != lo {
		t.Fatal("single-tenant pop lost the priority order")
	}
	_ = heap.Interface(&jobQueue{}) // the tenant queues still satisfy heap
}

// TestSubmitResumableExactRemainder is the resume-token round trip: build
// the aggregate for an arbitrary subset of seeds (the "completed before
// the deadline" half), hand it to SubmitResumable, and require the job —
// which enumerates only the remainder — to finish with results identical
// to an uninterrupted run.
func TestSubmitResumableExactRemainder(t *testing.T) {
	const graphName, k, q, topn = "corpus:planted-overlap", 2, 6, 7
	ref := refAggregate(t, graphName, k, q, topn)

	g, digest, release, err := testLoader(graphName)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	opts := kplex.NewOptions(k, q)
	p, err := kplex.Prepare(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	total := p.SeedSpace()

	// "Done" seeds: every third one. Aggregate them exactly the way the
	// server's partial path does — a run over only those seeds.
	var done []int
	skip := kplex.NewSeedSet()
	for s := 0; s < total; s++ {
		if s%3 == 0 {
			done = append(done, s)
		} else {
			skip.Add(s)
		}
	}
	agg := kplex.NewAggregate(topn)
	var mu sync.Mutex
	opts.OnPlex = func(px []int) {
		mu.Lock()
		agg.AddPlex(px)
		mu.Unlock()
	}
	opts.SkipSeeds = skip
	res, err := kplex.RunPrepared(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	agg.Stats = res.Stats

	m := openTestManager(t, t.TempDir(), nil)
	defer m.Close()
	man, err := m.SubmitResumable(Spec{Graph: graphName, K: k, Q: q, TopN: topn}, digest, total, done, agg, 12.5)
	if err != nil {
		t.Fatal(err)
	}
	if man.SeedsDone != len(done) || man.TotalSeeds != total || man.Digest != digest {
		t.Fatalf("manifest born with seedsDone=%d/%d digest=%q, want %d/%d %q",
			man.SeedsDone, man.TotalSeeds, man.Digest, len(done), total, digest)
	}
	v := waitDone(t, m, man.ID)
	if v.State != StateDone {
		t.Fatalf("resumable job ended %s (%q), want done", v.State, v.Error)
	}
	out, err := m.Result(man.ID)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, out, ref)
	if out.ElapsedMS < 12.5 {
		t.Errorf("cumulative elapsedMs %.3f lost the handed-over 12.5ms", out.ElapsedMS)
	}
}

func TestSubmitResumableValidation(t *testing.T) {
	m := openTestManager(t, t.TempDir(), nil)
	defer m.Close()
	agg := kplex.NewAggregate(5)
	spec := Spec{Graph: "corpus:planted-a", K: 2, Q: 6}
	if _, err := m.SubmitResumable(spec, "", 10, []int{1}, agg, 0); err == nil {
		t.Error("missing digest accepted")
	}
	if _, err := m.SubmitResumable(spec, "d", 10, []int{10}, agg, 0); err == nil {
		t.Error("out-of-range seed accepted")
	}
	if _, err := m.SubmitResumable(spec, "d", 10, []int{3, 3}, agg, 0); err == nil {
		t.Error("duplicate seed accepted")
	}
	if _, err := m.SubmitResumable(Spec{Graph: "g", Items: []SpecItem{{K: 2, Q: 6}}}, "d", 10, []int{1}, agg, 0); err == nil {
		t.Error("batch spec accepted as resumable")
	}
	// No progress degenerates to a plain submission that runs to done.
	man, err := m.SubmitResumable(spec, "", 0, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, m, man.ID); v.State != StateDone {
		t.Fatalf("degenerate resumable ended %s", v.State)
	}
}

// TestProgressETAUsesIncarnationRate pins the resume-skew regression: the
// ETA must be computed from seeds completed by THIS incarnation over THIS
// incarnation's elapsed time. A resumed job that inherited 90 of 100 seeds
// and then finished 10 more in 100ms is moving at 10ms/seed — not the
// 1.1ms/seed a naive seedsDone/elapsed division would claim.
func TestProgressETAUsesIncarnationRate(t *testing.T) {
	r := &jobRun{
		wal:         &Log{},
		total:       110,
		doneThisRun: 10,
		started:     time.Now().Add(-100 * time.Millisecond),
	}
	done := kplex.NewSeedSet()
	for s := 0; s < 100; s++ { // 90 inherited + 10 this run
		done.Add(s)
	}
	p := r.progressLocked(nil, done)
	if p.SeedsDone != 100 || p.TotalSeeds != 110 {
		t.Fatalf("progress %d/%d, want 100/110", p.SeedsDone, p.TotalSeeds)
	}
	// 10 remaining at ~10ms/seed ≈ 100ms; the buggy rate would say ~11ms.
	if p.ETAMS < 60 || p.ETAMS > 400 {
		t.Fatalf("ETAMS = %.1f, want ~100 (incarnation rate), not ~11 (lifetime rate)", p.ETAMS)
	}
}
