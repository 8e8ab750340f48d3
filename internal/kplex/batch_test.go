package kplex

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// batchSchedulers is the scheduler grid every batch differential runs over.
var batchSchedulers = []struct {
	name    string
	threads int
	sched   SchedulerStyle
}{
	{"sequential", 1, SchedulerStages},
	{"stages", 4, SchedulerStages},
	{"steal", 4, SchedulerSteal},
}

// batchGridCells returns the mixed (k, q) cells a corpus graph is probed
// at: the golden combos plus one stricter threshold, so each graph's batch
// spans at least two q values inside one k group and two k groups.
func batchGridCells(name string) [][2]int {
	switch name {
	case "gnp-dense":
		return [][2]int{{2, 6}, {2, 8}, {3, 7}}
	case "regular-flat":
		return [][2]int{{2, 4}, {2, 6}, {3, 6}}
	default:
		return [][2]int{{2, 6}, {2, 8}, {3, 8}}
	}
}

// oracleCell runs the standalone sequential engine for one cell and
// returns its result set fingerprint.
func oracleCell(t *testing.T, g *graph.Graph, k, q int) (int64, string) {
	t.Helper()
	var plexes [][]int
	opts := NewOptions(k, q)
	opts.OnPlex = func(p []int) { plexes = append(plexes, append([]int(nil), p...)) }
	res, err := Run(context.Background(), g, opts)
	if err != nil {
		t.Fatalf("oracle k=%d q=%d: %v", k, q, err)
	}
	return res.Count, canonicalHash(plexes)
}

// TestBatchDifferentialGrid is the batch layer's oracle: across the
// corpus, mixed (k, q) cells, the sequential path and both parallel
// schedulers, every member of EnumerateBatch must report exactly what the
// standalone sequential engine reports for its cell — count, canonical
// plex-set hash, top-k list and histogram alike.
func TestBatchDifferentialGrid(t *testing.T) {
	corpus := gen.Corpus()
	if testing.Short() {
		corpus = corpus[:3]
	}
	for _, cg := range corpus {
		cg := cg
		t.Run(cg.Name, func(t *testing.T) {
			t.Parallel()
			g := cg.Build()
			cells := batchGridCells(cg.Name)

			type want struct {
				count int64
				hash  string
				topk  [][]int
				hist  map[int]int64
			}
			wants := make([]want, len(cells))
			for i, kq := range cells {
				k, q := kq[0], kq[1]
				wants[i].count, wants[i].hash = oracleCell(t, g, k, q)
				var err error
				wants[i].topk, _, err = EnumerateTopK(context.Background(), g, NewOptions(k, q), 5)
				if err != nil {
					t.Fatal(err)
				}
				wants[i].hist, _, err = SizeHistogram(context.Background(), g, NewOptions(k, q))
				if err != nil {
					t.Fatal(err)
				}
			}

			for _, sc := range batchSchedulers {
				sc := sc
				t.Run(sc.name, func(t *testing.T) {
					// Three members per cell: count (with a plex collector),
					// top-k and histogram, all answered by shared walks.
					var queries []BatchQuery
					collected := make([][][]int, len(cells))
					var mu sync.Mutex
					for i, kq := range cells {
						i := i
						opts := NewOptions(kq[0], kq[1])
						opts.Threads = sc.threads
						opts.Scheduler = sc.sched
						if sc.threads > 1 {
							opts.TaskTimeout = 50 * time.Microsecond
						}
						withHook := opts
						withHook.OnPlex = func(p []int) {
							cp := append([]int(nil), p...)
							mu.Lock()
							collected[i] = append(collected[i], cp)
							mu.Unlock()
						}
						queries = append(queries,
							BatchQuery{Opts: withHook, Mode: BatchCount},
							BatchQuery{Opts: opts, Mode: BatchTopK, TopN: 5},
							BatchQuery{Opts: opts, Mode: BatchHistogram},
						)
					}
					results, err := RunBatch(context.Background(), g, queries)
					if err != nil {
						t.Fatal(err)
					}
					for i := range cells {
						w := wants[i]
						cnt, topk, hist := results[3*i], results[3*i+1], results[3*i+2]
						if cnt.Count != w.count {
							t.Errorf("cell %v: batch count %d, oracle %d", cells[i], cnt.Count, w.count)
						}
						if h := canonicalHash(collected[i]); h != w.hash {
							t.Errorf("cell %v: batch plex set hash %s, oracle %s (%d vs %d plexes)",
								cells[i], h, w.hash, len(collected[i]), w.count)
						}
						if !reflect.DeepEqual(topk.TopK, w.topk) {
							t.Errorf("cell %v: batch topk %v, oracle %v", cells[i], topk.TopK, w.topk)
						}
						if !reflect.DeepEqual(hist.Histogram, w.hist) {
							t.Errorf("cell %v: batch histogram %v, oracle %v", cells[i], hist.Histogram, w.hist)
						}
						if cnt.Stats.MaxPlexSize != topk.Stats.MaxPlexSize {
							t.Errorf("cell %v: member MaxPlexSize disagree: %d vs %d",
								cells[i], cnt.Stats.MaxPlexSize, topk.Stats.MaxPlexSize)
						}
					}
					// Members with one k must have shared a walk; distinct k
					// must not.
					for i := range queries {
						for j := range queries {
							same := queries[i].Opts.K == queries[j].Opts.K
							if (results[i].Group == results[j].Group) != same {
								t.Fatalf("queries %d and %d: group sharing mismatch (groups %d, %d)",
									i, j, results[i].Group, results[j].Group)
							}
						}
					}
				})
			}
		})
	}
}

// TestBatchPropertyRandomMixes is the quick-style randomized oracle: a
// seeded stream of random query mixes (random cells, modes, top-k sizes,
// duplicates included) over random corpus graphs, each member checked
// against its standalone run.
func TestBatchPropertyRandomMixes(t *testing.T) {
	rng := rand.New(rand.NewSource(20250727))
	corpus := gen.Corpus()
	iters := 12
	if testing.Short() {
		iters = 4
	}
	for it := 0; it < iters; it++ {
		cg := corpus[rng.Intn(len(corpus))]
		g := cg.Build()
		n := 2 + rng.Intn(5)
		queries := make([]BatchQuery, n)
		for i := range queries {
			k := 2 + rng.Intn(2)
			q := 2*k - 1 + rng.Intn(10)
			opts := NewOptions(k, q)
			opts.Threads = 1 + rng.Intn(4)
			opts.Scheduler = []SchedulerStyle{SchedulerStages, SchedulerSteal}[rng.Intn(2)]
			if opts.Threads > 1 {
				opts.TaskTimeout = time.Duration(rng.Intn(100)) * time.Microsecond
			}
			bq := BatchQuery{Opts: opts, Mode: BatchMode(rng.Intn(3))}
			if bq.Mode == BatchTopK {
				bq.TopN = 1 + rng.Intn(8)
			}
			queries[i] = bq
		}
		results, err := RunBatch(context.Background(), g, queries)
		if err != nil {
			t.Fatalf("iter %d (%s): %v", it, cg.Name, err)
		}
		for i, bq := range queries {
			switch bq.Mode {
			case BatchCount:
				res, err := Run(context.Background(), g, NewOptions(bq.Opts.K, bq.Opts.Q))
				if err != nil {
					t.Fatal(err)
				}
				if results[i].Count != res.Count || results[i].Stats.MaxPlexSize != res.Stats.MaxPlexSize {
					t.Errorf("iter %d (%s) member %d k=%d q=%d: count/max %d/%d, oracle %d/%d",
						it, cg.Name, i, bq.Opts.K, bq.Opts.Q,
						results[i].Count, results[i].Stats.MaxPlexSize, res.Count, res.Stats.MaxPlexSize)
				}
			case BatchTopK:
				topk, res, err := EnumerateTopK(context.Background(), g, NewOptions(bq.Opts.K, bq.Opts.Q), bq.TopN)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(results[i].TopK, topk) {
					t.Errorf("iter %d (%s) member %d k=%d q=%d topn=%d: topk mismatch",
						it, cg.Name, i, bq.Opts.K, bq.Opts.Q, bq.TopN)
				}
				// An all-top-k group may stop early: the list is exact but
				// the count is a prefix. Exact count otherwise.
				if results[i].Saturated {
					if results[i].Count > res.Count {
						t.Errorf("iter %d (%s) member %d: saturated count %d exceeds full %d",
							it, cg.Name, i, results[i].Count, res.Count)
					}
				} else if results[i].Count != res.Count {
					t.Errorf("iter %d (%s) member %d k=%d q=%d: count %d, oracle %d",
						it, cg.Name, i, bq.Opts.K, bq.Opts.Q, results[i].Count, res.Count)
				}
			case BatchHistogram:
				hist, res, err := SizeHistogram(context.Background(), g, NewOptions(bq.Opts.K, bq.Opts.Q))
				if err != nil {
					t.Fatal(err)
				}
				if results[i].Count != res.Count || !reflect.DeepEqual(results[i].Histogram, hist) {
					t.Errorf("iter %d (%s) member %d k=%d q=%d: histogram mismatch",
						it, cg.Name, i, bq.Opts.K, bq.Opts.Q)
				}
			}
		}
	}
}

// TestBatchMemberRejections pins the ValidateBatchMember guard: every
// per-query knob that assumes ownership of the traversal is rejected with
// an error naming the knob, and mode/TopN misuse is caught.
func TestBatchMemberRejections(t *testing.T) {
	g := gen.GNP(30, 0.4, 7)
	base := func() Options { return NewOptions(2, 4) }
	cases := []struct {
		name string
		bq   BatchQuery
		want string
	}{
		{"first-only", BatchQuery{Opts: func() Options { o := base(); o.FirstOnly = true; return o }()}, "FirstOnly"},
		{"skip-seeds", BatchQuery{Opts: func() Options {
			o := base()
			o.SkipSeeds = NewSeedSet(0)
			o.OnPlex = func([]int) {}
			return o
		}()}, "SkipSeeds"},
		{"on-seed-done", BatchQuery{Opts: func() Options { o := base(); o.OnSeedDone = func(int, Stats) {}; return o }()}, "OnSeedDone"},
		{"on-plex-seed", BatchQuery{Opts: func() Options { o := base(); o.OnPlexSeed = func(int, []int) {}; return o }()}, "OnPlexSeed"},
		{"invalid-options", BatchQuery{Opts: NewOptions(2, 2)}, "Q must be"},
		{"topn-on-count", BatchQuery{Opts: base(), Mode: BatchCount, TopN: 5}, "TopN"},
		{"topn-missing", BatchQuery{Opts: base(), Mode: BatchTopK}, "TopN"},
		{"bad-mode", BatchQuery{Opts: base(), Mode: BatchMode(42)}, "BatchMode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunBatch(context.Background(), g, []BatchQuery{tc.bq})
			if err == nil {
				t.Fatalf("batch accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
	// The sanity direction: a clean member passes.
	if _, err := RunBatch(context.Background(), g, []BatchQuery{{Opts: base()}}); err != nil {
		t.Fatalf("clean member rejected: %v", err)
	}
}

// TestGroupBatchGrouping pins the grouping rule: (K, UseCTCP) keys, the
// loosest Q wins, the widest member's execution knobs are adopted, and
// traversal-owning hooks are cleared from the cell.
func TestGroupBatchGrouping(t *testing.T) {
	mk := func(k, q, threads int, sched SchedulerStyle, ctcp bool) BatchQuery {
		o := NewOptions(k, q)
		o.Threads = threads
		o.Scheduler = sched
		o.UseCTCP = ctcp
		o.OnPlex = func([]int) {}
		return BatchQuery{Opts: o}
	}
	queries := []BatchQuery{
		mk(2, 10, 1, SchedulerStages, false),
		mk(3, 8, 2, SchedulerStages, false),
		mk(2, 6, 8, SchedulerSteal, false),
		mk(2, 6, 1, SchedulerStages, true),
		mk(2, 12, 2, SchedulerStages, false),
	}
	groups, err := GroupBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3: %+v", len(groups), groups)
	}
	g0 := groups[0] // k=2 without CTCP
	if !reflect.DeepEqual(g0.Members, []int{0, 2, 4}) {
		t.Fatalf("group 0 members %v", g0.Members)
	}
	if g0.Cell.K != 2 || g0.Cell.Q != 6 || g0.Cell.Threads != 8 || g0.Cell.Scheduler != SchedulerSteal {
		t.Fatalf("group 0 cell %+v: want K=2 Q=6 Threads=8 steal", g0.Cell)
	}
	if g0.Cell.OnPlex != nil || g0.Cell.FirstOnly || g0.Cell.SkipSeeds.Len() > 0 {
		t.Fatal("group cell retained member hooks")
	}
	if got := groups[1].Members; !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("group 1 members %v", got)
	}
	if g2 := groups[2]; !g2.Cell.UseCTCP || !reflect.DeepEqual(g2.Members, []int{3}) {
		t.Fatalf("CTCP member grouped wrongly: %+v", g2)
	}
}

// TestBatchMidCancelNoLeak cancels the batch context mid-walk under every
// scheduler: RunBatch must return the context error (no partial results)
// and no engine goroutine may survive.
func TestBatchMidCancelNoLeak(t *testing.T) {
	g := gen.ChungLu(200, 12, 2.3, 46) // thousands of plexes at k=3 q=8
	for _, sc := range batchSchedulers {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var seen int64
			var mu sync.Mutex
			opts := NewOptions(3, 8)
			opts.Threads = sc.threads
			opts.Scheduler = sc.sched
			opts.OnPlex = func([]int) {
				mu.Lock()
				seen++
				if seen == 10 {
					cancel()
				}
				mu.Unlock()
			}
			queries := []BatchQuery{
				{Opts: opts, Mode: BatchCount},
				{Opts: NewOptions(3, 10), Mode: BatchHistogram},
			}
			res, err := RunBatch(ctx, g, queries)
			if err == nil {
				t.Fatal("cancelled batch reported no error")
			}
			if res != nil {
				t.Fatalf("cancelled batch returned results: %+v", res)
			}
			waitGoroutines(t, base, 2)
		})
	}
}

// saturationGraph is a 20-clique over a sparse ring: the ring is peeled
// away by the (q-k)-core reduction, leaving exactly the clique's 20 seed
// groups, of which only the first emits the unique maximal 2-plex.
func saturationGraph(t *testing.T) *graph.Graph {
	t.Helper()
	var b graph.Builder
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			b.AddEdge(i, j)
		}
	}
	for i := 0; i < 300; i++ {
		b.AddEdge(20+i, 20+(i+1)%300)
	}
	g, err := b.Build(320)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBatchTopKSaturation checks that an all-top-k group stops its shared
// walk once no unfinished seed can change any member's answer — and that
// the early exit never changes the reported result.
func TestBatchTopKSaturation(t *testing.T) {
	g := saturationGraph(t)
	opts := NewOptions(2, 10)

	wantTopK, full, err := EnumerateTopK(context.Background(), g, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantTopK) != 1 || len(wantTopK[0]) != 20 {
		t.Fatalf("oracle topk = %v, want the 20-clique", wantTopK)
	}

	results, err := RunBatch(context.Background(), g, []BatchQuery{{Opts: opts, Mode: BatchTopK, TopN: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results[0].TopK, wantTopK) {
		t.Fatalf("saturated batch topk %v, oracle %v", results[0].TopK, wantTopK)
	}
	if results[0].Count >= full.Count+1 {
		t.Fatalf("saturated batch count %d exceeds full %d", results[0].Count, full.Count)
	}
	if results[0].Stats.Seeds >= full.Stats.Seeds {
		t.Fatalf("saturation did not prune the walk: batch built %d seed groups, full run %d",
			results[0].Stats.Seeds, full.Stats.Seeds)
	}
	if !results[0].Saturated {
		t.Error("early-exited member does not report Saturated")
	}

	// A top-k member with an OnPlex hook is promised its complete result
	// set, so it must disable the early exit even in an all-top-k group.
	var hooked [][]int
	hookedOpts := opts
	hookedOpts.OnPlex = func(p []int) { hooked = append(hooked, append([]int(nil), p...)) }
	withHook, err := RunBatch(context.Background(), g, []BatchQuery{{Opts: hookedOpts, Mode: BatchTopK, TopN: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if withHook[0].Saturated {
		t.Error("hooked top-k member still saturated")
	}
	if withHook[0].Stats.Seeds != full.Stats.Seeds || int64(len(hooked)) != full.Count {
		t.Errorf("hooked member walked %d seed groups and saw %d plexes, want %d and %d",
			withHook[0].Stats.Seeds, len(hooked), full.Stats.Seeds, full.Count)
	}

	// A count member in the group must disable the early exit: counts are
	// only correct when the walk completes.
	mixed, err := RunBatch(context.Background(), g, []BatchQuery{
		{Opts: opts, Mode: BatchTopK, TopN: 1},
		{Opts: opts, Mode: BatchCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mixed[1].Count != full.Count {
		t.Fatalf("mixed batch count %d, want %d", mixed[1].Count, full.Count)
	}
	if mixed[1].Stats.Seeds != full.Stats.Seeds {
		t.Fatalf("mixed batch built %d seed groups, want the full %d", mixed[1].Stats.Seeds, full.Stats.Seeds)
	}
	if mixed[0].Saturated || mixed[1].Saturated {
		t.Error("complete walk reported Saturated")
	}
}

// TestSeedBoundsBookkeeping unit-tests the saturation structure: retiring
// seeds moves the running maximum down exactly when the top bucket drains.
func TestSeedBoundsBookkeeping(t *testing.T) {
	g := saturationGraph(t)
	p, err := Prepare(g, NewOptions(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	sb := newSeedBounds(p)
	n := p.SeedSpace()
	if n != 20 {
		t.Fatalf("seed space %d, want the clique's 20", n)
	}
	// Bounds along the degeneracy order are k + laterDeg = 2 + (19 - i).
	prev := sb.maxB
	if prev != 21 {
		t.Fatalf("initial max bound %d, want 21", prev)
	}
	for s := 0; s < n; s++ {
		m := sb.seedDone(s)
		want := 2 + (19 - (s + 1)) // max bound among seeds s+1..19
		if s == n-1 {
			want = -1
		}
		if m != want {
			t.Fatalf("after retiring seed %d: max bound %d, want %d", s, m, want)
		}
	}
}

// TestBatchPreCancelled ensures a dead context fails fast without paying
// the prologue or the walk.
func TestBatchPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gen.GNP(40, 0.3, 9)
	_, err := RunBatch(ctx, g, []BatchQuery{{Opts: NewOptions(2, 4)}})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBatchEmpty pins the trivial contract: no queries, no work, no error.
func TestBatchEmpty(t *testing.T) {
	g := gen.GNP(10, 0.5, 3)
	res, err := RunBatch(context.Background(), g, nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
}

// TestEmptyResultShapes pins the shape of an empty answer on every path
// that reports from a run aggregate: the top-k list and the histogram are
// empty but non-nil, so their JSON renders [] and {} rather than null.
func TestEmptyResultShapes(t *testing.T) {
	ctx := context.Background()
	g := gen.GNP(20, 0.1, 1)
	opts := NewOptions(2, 15)
	top, res, err := EnumerateTopK(ctx, g, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Fatalf("test graph has %d plexes, want none", res.Count)
	}
	if top == nil || len(top) != 0 {
		t.Fatalf("EnumerateTopK = %#v, want an empty non-nil list", top)
	}
	hist, _, err := SizeHistogram(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hist == nil || len(hist) != 0 {
		t.Fatalf("SizeHistogram = %#v, want an empty non-nil map", hist)
	}
	br, err := RunBatch(ctx, g, []BatchQuery{{Opts: opts, Mode: BatchTopK, TopN: 3}, {Opts: opts, Mode: BatchHistogram}})
	if err != nil {
		t.Fatal(err)
	}
	if br[0].TopK == nil || len(br[0].TopK) != 0 {
		t.Fatalf("BatchTopK member = %#v, want an empty non-nil list", br[0].TopK)
	}
	if br[1].Histogram == nil || len(br[1].Histogram) != 0 {
		t.Fatalf("BatchHistogram member = %#v, want an empty non-nil map", br[1].Histogram)
	}
}
