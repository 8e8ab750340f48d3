// Package cluster distributes one enumeration across many kplexd
// processes. The unit of distribution is a contiguous range of the
// deterministic seed id space (kplex.SeedSpace): a coordinator partitions
// a job's seed space into ranges, leases each range to a worker kplexd,
// and merges the per-range aggregates (count, top-k, size histogram,
// XOR-of-SHA-256 plex digest) through kplex's mergeable Aggregate.
// Because the seed decomposition depends only on the graph content and
// the result-defining options, and because aggregate merging
// is associative and commutative over disjoint plex sets, the merged
// result is identical — count, top-k, histogram and digest — to a
// single-node run, no matter how the ranges were partitioned, which
// worker ran each one, or how many times a range was retried.
//
// Workers are plain kplexd instances: every kplexd serves POST
// /cluster/run, which verifies the requested graph digest against its own
// copy (the digest-verification handshake), resolves the run prologue
// from its prepared-graph cache, enumerates exactly the leased range by
// running with the complement of the range as Options.SkipSeeds, and
// streams progress plus the range's final Aggregate back as NDJSON.
//
// Failure semantics mirror the engine's intra-process work stealing one
// level up: a lease that stops reporting progress for LeaseTimeout is
// cancelled and its range returns to the pending queue; a worker whose
// connection drops mid-range loses the lease the same way; and once the
// pending queue is empty, idle workers speculatively re-lease the
// longest-running straggler ranges (range stealing), with the first
// completion winning and later reports ignored idempotently. Completed
// ranges are recorded in a CRC-guarded write-ahead log under the
// coordinator's state dir, so a coordinator restart resumes a distributed
// job without re-running finished ranges.
package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/jobs"
	"repro/internal/kplex"
	"repro/internal/obs"
)

// Spec is what a client submits to the coordinator: the result-defining
// query plus distribution knobs. Distributed jobs are single-query only —
// batch items fan out across ranges poorly (every member would ride every
// range) and can always be submitted as one distributed job per cell.
type Spec struct {
	Graph string `json:"graph"`
	K     int    `json:"k"`
	Q     int    `json:"q"`
	TopN  int    `json:"topn,omitempty"` // largest plexes kept (default 10)
	// Ranges is the number of seed ranges the job is split into (default
	// RangesPerWorker × registered workers). More ranges mean finer-grained
	// reassignment and stealing at the cost of more per-range prologue
	// verification round trips.
	Ranges int `json:"ranges,omitempty"`
	// Threads is the engine parallelism each worker runs its ranges with
	// (0: the worker's own default).
	Threads   int    `json:"threads,omitempty"`
	Scheduler string `json:"scheduler,omitempty"` // "", stages, global-queue, steal
}

// Range is one contiguous slice [Lo, Hi) of a job's seed id space. A
// range's identity is its index in the manifest's pinned partition.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Manifest is the durable per-job metadata. The partition (Ranges), graph
// digest and seed-space size are pinned at first run: every later
// incarnation — and every worker — must agree on them or the per-range
// checkpoints would describe a different decomposition.
type Manifest struct {
	ID         string     `json:"id"`
	Spec       Spec       `json:"spec"`
	State      jobs.State `json:"state"`
	Digest     string     `json:"digest,omitempty"`
	TotalSeeds int        `json:"totalSeeds,omitempty"`
	Ranges     []Range    `json:"ranges,omitempty"`
	RangesDone int        `json:"rangesDone"`
	Resumes    int        `json:"resumes"`
	Error      string     `json:"error,omitempty"`
	CreatedAt  time.Time  `json:"createdAt"`
	StartedAt  time.Time  `json:"startedAt,omitzero"`
	FinishedAt time.Time  `json:"finishedAt,omitzero"`
	// EnumMS is cumulative distributed enumeration wall-clock across
	// coordinator incarnations.
	EnumMS float64 `json:"enumMs,omitempty"`
	// TraceID names the job's stitched trace in the coordinator's
	// /debug/traces ring; pinned at first run.
	TraceID string `json:"traceId,omitempty"`
}

// Progress is the live view streamed to watchers.
type Progress struct {
	State       jobs.State `json:"state"`
	RangesDone  int        `json:"rangesDone"`
	RangesTotal int        `json:"rangesTotal"`
	SeedsDone   int        `json:"seedsDone"` // completed ranges + live lease progress
	TotalSeeds  int        `json:"totalSeeds"`
	Leased      int        `json:"leased"`               // ranges currently out on lease
	Reassigned  int64      `json:"reassigned,omitempty"` // leases lost to failure or expiry
	Stolen      int64      `json:"stolen,omitempty"`     // speculative straggler re-leases
	ElapsedMS   float64    `json:"elapsedMs"`
	Error       string     `json:"error,omitempty"`
}

// View is one distributed job in listings.
type View struct {
	Manifest
	Progress Progress `json:"progress"`
}

// WorkerView is one registered worker in GET /cluster/workers listings.
type WorkerView struct {
	URL        string    `json:"url"`
	Busy       bool      `json:"busy"`
	Fails      int       `json:"fails"` // consecutive failures; reset on success
	RangesDone int64     `json:"rangesDone"`
	AddedAt    time.Time `json:"addedAt"`
	LastOK     time.Time `json:"lastOk,omitzero"`
}

// RangeRequest is the body of POST /cluster/run: one leased range. Digest
// and TotalSeeds carry the coordinator's view of the decomposition; the
// worker refuses the lease unless its own graph copy and prologue agree,
// so a stale file on one node degrades into a rejected lease instead of a
// silently wrong merge.
type RangeRequest struct {
	Graph      string `json:"graph"`
	Digest     string `json:"digest"`
	TotalSeeds int    `json:"totalSeeds"`
	K          int    `json:"k"`
	Q          int    `json:"q"`
	TopN       int    `json:"topn"`
	Threads    int    `json:"threads,omitempty"`
	Scheduler  string `json:"scheduler,omitempty"`
	Lo         int    `json:"lo"`
	Hi         int    `json:"hi"`
}

// RangeLine is one NDJSON line of a worker's range response: progress
// lines carry SeedsDone only; the final line carries Done plus the sealed
// aggregate (or Error).
type RangeLine struct {
	SeedsDone int              `json:"seedsDone"`
	Done      bool             `json:"done,omitempty"`
	Agg       *kplex.Aggregate `json:"agg,omitempty"`
	ElapsedMS float64          `json:"elapsedMs,omitempty"`
	Error     string           `json:"error,omitempty"`
	// Spans is the worker's share of a propagated trace (admission,
	// prepare, enumerate), shipped with the Done line so the coordinator
	// can stitch one distributed trace. Empty when the request carried no
	// Traceparent header.
	Spans []obs.SpanData `json:"spans,omitempty"`
}

// RunRange executes one leased range against a prepared handle: it
// enumerates exactly the seeds in [req.Lo, req.Hi) by skipping the
// complement, collects every delivered plex into the range's aggregate,
// and reports per-seed completion through onSeed (monotonic count of
// range seeds finished). It is the worker-side core of POST /cluster/run,
// shared with in-process tests. opts must be the validated execution
// options of the (K, Q) cell the handle was prepared for.
func RunRange(ctx context.Context, p *kplex.Prepared, opts kplex.Options, req *RangeRequest, onSeed func(done int)) (*kplex.Aggregate, kplex.Result, error) {
	total := p.SeedSpace()
	if total != req.TotalSeeds {
		return nil, kplex.Result{}, fmt.Errorf("cluster: seed space disagrees: coordinator partitioned %d seeds, this worker's prologue has %d (graph content or binary version skew)", req.TotalSeeds, total)
	}
	if req.Lo < 0 || req.Hi > total || req.Lo >= req.Hi {
		return nil, kplex.Result{}, fmt.Errorf("cluster: range [%d, %d) outside the %d-seed space", req.Lo, req.Hi, total)
	}
	skip := &kplex.SeedSet{}
	for s := 0; s < total; s++ {
		if s < req.Lo || s >= req.Hi {
			skip.Add(s)
		}
	}
	opts.SkipSeeds = skip

	// The collector spans only the range: seed s is its seed s-Lo.
	n := req.Hi - req.Lo
	col := kplex.NewSeedCollector(n, []kplex.CollectMember{{TopN: req.TopN}}, func(_ int, _ int64, _ []*kplex.Aggregate, done *kplex.SeedSet) {
		if onSeed != nil {
			onSeed(done.Len())
		}
	})
	col.Install(&opts, -req.Lo)
	res, err := kplex.RunPrepared(ctx, p, opts)
	if err != nil {
		return nil, res, err
	}
	aggs, done := col.Snapshot()
	if done.Len() != n {
		return nil, res, fmt.Errorf("cluster: internal accounting error: %d of %d range seeds reported done", done.Len(), n)
	}
	agg := aggs[0]
	agg.Stats = res.Stats
	return agg, res, nil
}

// partition splits a seed space of total seeds into n contiguous ranges
// of near-equal size (the first total%n ranges are one seed longer). n is
// clamped to [1, total]; a zero-seed space has no ranges.
func partition(total, n int) []Range {
	if total <= 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	if n > total {
		n = total
	}
	out := make([]Range, n)
	base, extra := total/n, total%n
	lo := 0
	for i := range out {
		size := base
		if i < extra {
			size++
		}
		out[i] = Range{Lo: lo, Hi: lo + size}
		lo += size
	}
	return out
}

// BuildOptions translates a range request into the engine options a
// worker runs it with, defaultThreads filling an unset thread count. The
// worker-side host (the kplexd handler) uses it so request → options
// translation cannot drift between coordinator and worker.
func BuildOptions(req *RangeRequest, defaultThreads int) (kplex.Options, error) {
	o := kplex.NewOptions(req.K, req.Q)
	o.Threads = req.Threads
	if o.Threads <= 0 {
		o.Threads = defaultThreads
	}
	sched, err := kplex.ParseScheduler(req.Scheduler)
	if err != nil {
		return kplex.Options{}, fmt.Errorf("cluster: %w", err)
	}
	o.Scheduler = sched
	if o.Threads > 1 {
		o.TaskTimeout = kplex.DefaultTaskTimeout
	}
	return o, nil
}

// GraphLoader is the coordinator's graph resolver; identical contract to
// jobs.GraphLoader.
type GraphLoader = jobs.GraphLoader
