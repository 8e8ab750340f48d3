package cluster

// Unit tests for the distribution primitives: the partitioner, the
// request → engine-options translation, and RunRange's guarantee that
// merging per-range aggregates reproduces the single-node answer.

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kplex"
)

// testLoader resolves "corpus:<name>" against the builtin corpus, the
// same contract the coordinator's host wires in.
func testLoader(name string) (graph.CSR, string, func(), error) {
	cg := gen.CorpusGraphByName(strings.TrimPrefix(name, "corpus:"))
	if cg == nil {
		return nil, "", nil, fmt.Errorf("unknown graph %q", name)
	}
	g := cg.Build()
	return g, graph.DigestHex(g), func() {}, nil
}

// refAggregate computes the uninterrupted single-node ground truth for a
// cell through the same Aggregate arithmetic the merge uses.
func refAggregate(t *testing.T, graphName string, k, q, topn int) *kplex.Aggregate {
	t.Helper()
	g, _, release, err := testLoader(graphName)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	agg := kplex.NewAggregate(topn)
	opts := kplex.NewOptions(k, q)
	opts.OnPlex = func(p []int) { agg.AddPlex(p) }
	res, err := kplex.Run(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	agg.Stats = res.Stats
	return agg
}

// assertSameResultSet pins got to the reference bit for bit: count,
// max size, histogram, top-k and the order-independent plex digest.
func assertSameResultSet(t *testing.T, got, ref *kplex.Aggregate) {
	t.Helper()
	if got.Count != ref.Count {
		t.Errorf("count = %d, want %d", got.Count, ref.Count)
	}
	if got.MaxSize != ref.MaxSize {
		t.Errorf("maxSize = %d, want %d", got.MaxSize, ref.MaxSize)
	}
	if got.PlexDigest() != ref.PlexDigest() {
		t.Errorf("plex digest = %s, want %s (result set differs)", got.PlexDigest(), ref.PlexDigest())
	}
	if len(got.Histogram) != len(ref.Histogram) {
		t.Errorf("histogram has %d sizes, want %d", len(got.Histogram), len(ref.Histogram))
	}
	for s, c := range ref.Histogram {
		if got.Histogram[s] != c {
			t.Errorf("histogram[%d] = %d, want %d", s, got.Histogram[s], c)
		}
	}
	if len(got.TopK) != len(ref.TopK) {
		t.Fatalf("topk has %d entries, want %d", len(got.TopK), len(ref.TopK))
	}
	for i := range ref.TopK {
		if len(got.TopK[i]) != len(ref.TopK[i]) {
			t.Fatalf("topk[%d] has size %d, want %d", i, len(got.TopK[i]), len(ref.TopK[i]))
		}
		for j := range ref.TopK[i] {
			if got.TopK[i][j] != ref.TopK[i][j] {
				t.Fatalf("topk[%d] = %v, want %v", i, got.TopK[i], ref.TopK[i])
			}
		}
	}
}

func TestPartition(t *testing.T) {
	for _, tc := range []struct{ total, n, wantRanges int }{
		{10, 3, 3},
		{10, 1, 1},
		{10, 0, 1}, // clamped up
		{3, 10, 3}, // clamped down: no empty ranges
		{0, 4, 0},  // empty seed space
		{100, 7, 7},
		{1, 1, 1},
	} {
		rs := partition(tc.total, tc.n)
		if len(rs) != tc.wantRanges {
			t.Errorf("partition(%d, %d) = %d ranges, want %d", tc.total, tc.n, len(rs), tc.wantRanges)
			continue
		}
		// Ranges must tile [0, total) contiguously with near-equal sizes.
		lo := 0
		minSize, maxSize := tc.total+1, 0
		for _, r := range rs {
			if r.Lo != lo || r.Hi <= r.Lo {
				t.Fatalf("partition(%d, %d): range %+v breaks contiguity at %d", tc.total, tc.n, r, lo)
			}
			size := r.Hi - r.Lo
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
			lo = r.Hi
		}
		if len(rs) > 0 {
			if lo != tc.total {
				t.Errorf("partition(%d, %d) covers [0, %d)", tc.total, tc.n, lo)
			}
			if maxSize-minSize > 1 {
				t.Errorf("partition(%d, %d): sizes range %d..%d, want near-equal", tc.total, tc.n, minSize, maxSize)
			}
		}
	}
}

func TestBuildOptions(t *testing.T) {
	req := &RangeRequest{K: 2, Q: 6, Scheduler: "steal", Threads: 3}
	opts, err := BuildOptions(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Scheduler != kplex.SchedulerSteal || opts.Threads != 3 {
		t.Errorf("opts = sched %v threads %d, want steal/3", opts.Scheduler, opts.Threads)
	}
	if opts.TaskTimeout != 2*time.Millisecond {
		t.Errorf("multi-thread TaskTimeout = %v, want 2ms", opts.TaskTimeout)
	}

	req = &RangeRequest{K: 2, Q: 6} // defaults
	opts, err = BuildOptions(req, 1)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Threads != 1 || opts.TaskTimeout != 0 {
		t.Errorf("single-thread opts = threads %d tau %v, want 1/0", opts.Threads, opts.TaskTimeout)
	}

	if _, err := BuildOptions(&RangeRequest{K: 2, Q: 6, Scheduler: "lifo"}, 1); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

// TestRunRangeMergesToFullRun splits a corpus cell into ranges, runs each
// through RunRange, merges, and requires the merged aggregate to be
// identical to the uninterrupted run — for several partitionings.
func TestRunRangeMergesToFullRun(t *testing.T) {
	const graphName, k, q, topn = "corpus:planted-overlap", 2, 6, 7
	ref := refAggregate(t, graphName, k, q, topn)
	g, digest, release, err := testLoader(graphName)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	for _, nRanges := range []int{1, 3, 7} {
		t.Run(fmt.Sprintf("ranges=%d", nRanges), func(t *testing.T) {
			opts, err := BuildOptions(&RangeRequest{K: k, Q: q, Threads: 2}, 2)
			if err != nil {
				t.Fatal(err)
			}
			p, err := kplex.Prepare(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			total := p.SeedSpace()
			merged := kplex.NewAggregate(topn)
			for _, r := range partition(total, nRanges) {
				req := &RangeRequest{
					Graph: graphName, Digest: digest, TotalSeeds: total,
					K: k, Q: q, TopN: topn, Threads: 2, Lo: r.Lo, Hi: r.Hi,
				}
				// onSeed fires concurrently from engine workers; track the high
				// water mark the way the server handler does.
				var seeds atomic.Int64
				agg, _, err := RunRange(context.Background(), p, opts, req, func(n int) {
					for {
						have := seeds.Load()
						if int64(n) <= have || seeds.CompareAndSwap(have, int64(n)) {
							return
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := seeds.Load(); got != int64(r.Hi-r.Lo) {
					t.Fatalf("range %+v reported %d seeds done", r, got)
				}
				merged.Merge(agg)
			}
			assertSameResultSet(t, merged, ref)
		})
	}
}

// TestRunRangeRejectsBadGeometry covers the worker-side refusals that turn
// coordinator/worker skew into failed leases instead of wrong merges.
func TestRunRangeRejectsBadGeometry(t *testing.T) {
	g, _, release, err := testLoader("corpus:planted-a")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	opts := kplex.NewOptions(2, 6)
	p, err := kplex.Prepare(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	total := p.SeedSpace()

	if _, _, err := RunRange(context.Background(), p, opts, &RangeRequest{TotalSeeds: total + 1, Lo: 0, Hi: 1}, nil); err == nil {
		t.Error("seed-space mismatch accepted")
	}
	for _, r := range []Range{{-1, 1}, {0, total + 1}, {3, 3}, {5, 2}} {
		if _, _, err := RunRange(context.Background(), p, opts, &RangeRequest{TotalSeeds: total, Lo: r.Lo, Hi: r.Hi}, nil); err == nil {
			t.Errorf("range %+v accepted", r)
		}
	}
}
