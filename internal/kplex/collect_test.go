package kplex

// Deadline-partial grid: under both schedulers, a run cancelled
// mid-flight must leave its SeedCollector with a true lower bound of the
// exact golden count, and resuming with SkipSeeds = the collector's
// done-set must produce exactly the remainder — count, histogram, max
// size, top-k and plex digest all reassembling the uninterrupted answer.

import (
	"context"
	"encoding/json"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
)

func TestDeadlinePartialGrid(t *testing.T) {
	schedulers := []struct {
		name  string
		style SchedulerStyle
	}{
		{"stages", SchedulerStages},
		{"steal", SchedulerSteal},
	}
	cells := []struct {
		graph string
		k, q  int
	}{
		{"planted-a", 2, 6},
		{"chunglu-tail", 3, 8},
	}
	const topN = 5
	members := []CollectMember{{TopN: topN}}
	for _, sc := range schedulers {
		for _, cell := range cells {
			t.Run(sc.name+"/"+cell.graph, func(t *testing.T) {
				want := readGoldenCase(t, goldenCase{Graph: cell.graph, K: cell.k, Q: cell.q})
				cg := gen.CorpusGraphByName(cell.graph)
				g := cg.Build()

				opts := NewOptions(cell.k, cell.q)
				opts.Threads = 4
				opts.Scheduler = sc.style
				p, err := Prepare(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				total := p.SeedSpace()

				// The uninterrupted answer through plain per-plex folding.
				ref := NewAggregate(topN)
				var refMu sync.Mutex
				refOpts := opts
				refOpts.OnPlex = func(plex []int) {
					refMu.Lock()
					ref.AddPlex(plex)
					refMu.Unlock()
				}
				if _, err := RunPrepared(context.Background(), p, refOpts); err != nil {
					t.Fatal(err)
				}
				if ref.Count != want.Count || ref.MaxSize != want.MaxSize {
					t.Fatalf("reference run count=%d max=%d, golden %d/%d", ref.Count, ref.MaxSize, want.Count, want.MaxSize)
				}

				// Cancel once a third of the seed groups have committed —
				// mid-flight, so some groups are abandoned incomplete.
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				stopAfter := int64(total / 3)
				var committed atomic.Int64
				col := NewSeedCollector(total, members, func(int, []*Aggregate, *SeedSet) {
					if committed.Add(1) == stopAfter {
						cancel()
					}
				})
				col.Install(&opts, 0)

				_, runErr := RunPrepared(ctx, p, opts)
				if stopAfter > 0 && runErr == nil {
					t.Fatalf("run completed despite cancellation after %d commits", stopAfter)
				}

				// The committed prefix is a true lower bound.
				aggs, done := col.Snapshot()
				part := aggs[0]
				if part.Count > want.Count {
					t.Fatalf("partial count %d exceeds exact %d", part.Count, want.Count)
				}
				if part.MaxSize > want.MaxSize {
					t.Fatalf("partial max size %d exceeds exact %d", part.MaxSize, want.MaxSize)
				}
				if done.Len() > total {
					t.Fatalf("seedsDone %d exceeds seed space %d", done.Len(), total)
				}

				// Resume from the done-set: the remainder must reassemble
				// the exact answer.
				opts2 := NewOptions(cell.k, cell.q)
				opts2.Threads = 4
				opts2.Scheduler = sc.style
				opts2.SkipSeeds = done
				col2 := NewSeedCollector(total, members, nil)
				col2.Install(&opts2, 0)
				if _, err := RunPrepared(context.Background(), p, opts2); err != nil {
					t.Fatalf("resume run: %v", err)
				}
				aggs2, done2 := col2.Snapshot()
				rest := aggs2[0]

				if got := part.Count + rest.Count; got != want.Count {
					t.Errorf("partial %d + remainder %d = %d, want exact %d", part.Count, rest.Count, got, want.Count)
				}
				if got := done.Len() + done2.Len(); got != total {
					t.Errorf("seedsDone %d + %d = %d, want seed space %d", done.Len(), done2.Len(), got, total)
				}
				part.Merge(rest)
				if part.MaxSize != ref.MaxSize {
					t.Errorf("max size %d, want %d", part.MaxSize, ref.MaxSize)
				}
				if part.PlexDigest() != ref.PlexDigest() {
					t.Errorf("merged plex digest %s, want %s (result set differs)", part.PlexDigest(), ref.PlexDigest())
				}
				if len(part.Histogram) != len(ref.Histogram) {
					t.Errorf("merged histogram has %d sizes, want %d", len(part.Histogram), len(ref.Histogram))
				}
				for size, n := range ref.Histogram {
					if part.Histogram[size] != n {
						t.Errorf("merged histogram[%d] = %d, want %d", size, part.Histogram[size], n)
					}
				}
				if len(part.TopK) != len(ref.TopK) {
					t.Fatalf("merged top-k has %d entries, want %d", len(part.TopK), len(ref.TopK))
				}
				for i := range ref.TopK {
					if !slices.Equal(part.TopK[i], ref.TopK[i]) {
						t.Errorf("merged top-k[%d] = %v, want %v", i, part.TopK[i], ref.TopK[i])
					}
				}
			})
		}
	}
}

// TestCollectorCommitDiscipline checks the buffering rules directly:
// plexes count only after their seed's OnSeedDone, duplicate completions
// are ignored, an empty seed group still marks done, and each member sees
// only the plexes its threshold admits.
func TestCollectorCommitDiscipline(t *testing.T) {
	var commits []int
	col := NewSeedCollector(16, []CollectMember{{TopN: 1}, {Q: 4, TopN: 1}}, func(seed int, aggs []*Aggregate, done *SeedSet) {
		commits = append(commits, seed)
		if seed == 7 && (aggs[0].Count != 2 || !done.Contains(7)) {
			t.Errorf("commit view of seed 7: count=%d", aggs[0].Count)
		}
	})
	var opts Options
	col.Install(&opts, 0)

	opts.OnPlexSeed(7, []int{1, 2, 3})
	opts.OnPlexSeed(7, []int{1, 2, 3, 4})
	if aggs, done := col.Snapshot(); aggs[0].Count != 0 || done.Len() != 0 {
		t.Fatalf("uncommitted seed already visible: count=%d done=%d", aggs[0].Count, done.Len())
	}
	opts.OnSeedDone(7, Stats{Seeds: 1})
	aggs, done := col.Snapshot()
	if aggs[0].Count != 2 || aggs[0].MaxSize != 4 || done.Len() != 1 {
		t.Fatalf("after commit: count=%d max=%d done=%d", aggs[0].Count, aggs[0].MaxSize, done.Len())
	}
	if h := aggs[0].Histogram; h[3] != 1 || h[4] != 1 {
		t.Fatalf("histogram %v", h)
	}
	if aggs[1].Count != 1 || aggs[1].TopK[0][3] != 4 {
		t.Fatalf("q=4 member saw count=%d topk=%v, want only the 4-vertex plex", aggs[1].Count, aggs[1].TopK)
	}
	if aggs[0].Stats.Seeds != 1 {
		t.Fatalf("stats %+v", aggs[0].Stats)
	}

	// Duplicate completion: no double count.
	opts.OnSeedDone(7, Stats{Seeds: 1})
	if aggs, done := col.Snapshot(); done.Len() != 1 || aggs[0].Stats.Seeds != 1 {
		t.Fatal("duplicate OnSeedDone committed twice")
	}

	// Empty group: done advances, totals do not.
	opts.OnSeedDone(9, Stats{})
	aggs, done = col.Snapshot()
	if done.Len() != 2 || aggs[0].Count != 2 {
		t.Fatalf("empty group: done=%d count=%d", done.Len(), aggs[0].Count)
	}
	if !done.Contains(9) {
		t.Fatal("done-set missing empty group")
	}
	if len(commits) != 2 || commits[0] != 7 || commits[1] != 9 {
		t.Fatalf("commit callback saw %v, want [7 9]", commits)
	}
}

// TestCollectorChainsHooks verifies Install preserves hooks already set
// and maps walk-local seeds through its offset.
func TestCollectorChainsHooks(t *testing.T) {
	var plexes, dones int
	opts := Options{
		OnPlexSeed: func(int, []int) { plexes++ },
		OnSeedDone: func(int, Stats) { dones++ },
	}
	col := NewSeedCollector(8, []CollectMember{{}}, nil)
	col.Install(&opts, 5)
	opts.OnPlexSeed(1, []int{1, 2})
	opts.OnSeedDone(1, Stats{})
	if plexes != 1 || dones != 1 {
		t.Fatalf("chained hooks fired %d/%d times, want 1/1", plexes, dones)
	}
	aggs, done := col.Snapshot()
	if aggs[0].Count != 1 || !done.Contains(6) {
		t.Fatalf("collector count %d, done %v (want seed 6)", aggs[0].Count, done.Seeds())
	}
}

// TestCollectorResume checks that a collector seeded with a prior done-set
// and aggregate continues from it, and that it rejects state that does not
// fit its seed space or member list.
func TestCollectorResume(t *testing.T) {
	prior := NewAggregate(0)
	prior.AddPlex([]int{1, 2, 3})
	col := NewSeedCollector(4, []CollectMember{{TopN: 2}}, nil)
	if err := col.Resume([]int{0, 2}, []*Aggregate{prior}); err != nil {
		t.Fatal(err)
	}
	var opts Options
	col.Install(&opts, 0)
	opts.OnPlexSeed(1, []int{4, 5, 6, 7})
	opts.OnSeedDone(1, Stats{})
	aggs, done := col.Snapshot()
	if aggs[0].Count != 2 || aggs[0].TopN != 2 || len(aggs[0].TopK) != 1 || done.Len() != 3 {
		t.Fatalf("resumed collector: count=%d topn=%d topk=%v done=%v", aggs[0].Count, aggs[0].TopN, aggs[0].TopK, done.Seeds())
	}

	if err := NewSeedCollector(4, []CollectMember{{}}, nil).Resume([]int{4}, []*Aggregate{NewAggregate(0)}); err == nil {
		t.Error("seed outside the space accepted")
	}
	if err := NewSeedCollector(4, []CollectMember{{}}, nil).Resume(nil, nil); err == nil {
		t.Error("member/aggregate arity mismatch accepted")
	}
}

// TestAggregateUnsealRoundTrip: an aggregate written by Snapshot (a job
// log record, a worker's range answer) reads back with the same plex
// digest, an empty one reads back as the empty set, and a corrupt digest
// is refused rather than merged.
func TestAggregateUnsealRoundTrip(t *testing.T) {
	a := NewAggregate(2)
	for _, p := range [][]int{{1, 2, 3}, {2, 3, 4, 5}, {0, 9}} {
		a.AddPlex(p)
	}
	data, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Aggregate
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Unseal(); err != nil || back.PlexDigest() != a.PlexDigest() || back.Count != 3 {
		t.Fatalf("round trip: err %v, digest %s count %d; want %s and 3", err, back.PlexDigest(), back.Count, a.PlexDigest())
	}
	empty := Aggregate{PlexXor: ""}
	if err := empty.Unseal(); err != nil || empty.PlexDigest() != NewAggregate(0).PlexDigest() {
		t.Fatalf("empty digest: err %v, digest %s", err, empty.PlexDigest())
	}
	for _, bad := range []string{"zz", "abcd"} {
		corrupt := Aggregate{PlexXor: bad}
		if corrupt.Unseal() == nil {
			t.Errorf("Unseal accepted corrupt digest %q", bad)
		}
	}
}
