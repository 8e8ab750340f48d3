package kplex

// Batched multi-query execution over shared Prepared handles. Parameter
// sweeps — the same graph queried at many (k, q) cells for histograms,
// dashboards and calibration — dominate production traffic against a
// query service, and PR 4's prepared-graph layer only amortizes the
// O(n+m) prologue *within* one (k, q) cell. The seed-vertex decomposition
// makes the traversal itself shareable: every maximal k-plex with at
// least q' >= q vertices is, by definition, reported by an enumeration at
// the looser threshold q, so one walk of the seed space at the group's
// loosest cell can answer every member query whose (k, q') it subsumes by
// fanning each discovered plex out to the members whose threshold it
// meets.
//
// Sharing is only sound along the q axis. Two queries with different k
// enumerate different objects: a maximal k'-plex (k' < k) need not be a
// maximal k-plex — it can be strictly contained in a larger k-plex — so
// filtering one enumeration cannot recover the other. Queries therefore
// group by (K, UseCTCP); each group prepares once at (K, min Q) and walks
// the seed space once.
//
// Early exit: a group whose members are all top-k queries can finish
// before the walk does. Any plex reported by seed s has at most
// k + |laterNeighbors(s)| vertices (the plex contains the seed, at most
// k-1 vertices non-adjacent to it, and otherwise only later neighbours),
// so once every member's top-k list is full and its weakest entry is
// strictly larger than the bound of every unfinished seed, no remaining
// subproblem can change any member's answer and the shared walk is
// cancelled. The strict inequality keeps results byte-identical to the
// sequential path: a tie could still swap in a lexicographically smaller
// plex.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// BatchMode selects what one batch member reports.
type BatchMode int

const (
	// BatchCount reports the member's plex count (and MaxSize).
	BatchCount BatchMode = iota
	// BatchTopK reports the member's TopN largest plexes.
	BatchTopK
	// BatchHistogram reports the member's size histogram.
	BatchHistogram
)

func (m BatchMode) String() string {
	switch m {
	case BatchCount:
		return "count"
	case BatchTopK:
		return "topk"
	case BatchHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("BatchMode(%d)", int(m))
	}
}

// BatchQuery is one member of a batch: an options cell plus the reporting
// mode. Opts must pass Options.ValidateBatchMember — per-query knobs that
// assume ownership of the traversal (FirstOnly, SkipSeeds, the seed
// hooks) are rejected; Opts.OnPlex is honoured and receives exactly the
// member's own result set.
type BatchQuery struct {
	Opts Options
	Mode BatchMode
	// TopN bounds a BatchTopK member (required >= 1 for that mode, must be
	// zero otherwise).
	TopN int
}

// validate checks the member in isolation.
func (q *BatchQuery) validate() error {
	if err := q.Opts.ValidateBatchMember(); err != nil {
		return err
	}
	switch q.Mode {
	case BatchCount, BatchHistogram:
		if q.TopN != 0 {
			return fmt.Errorf("kplex: TopN is only meaningful for BatchTopK members, got %d on a %s member", q.TopN, q.Mode)
		}
	case BatchTopK:
		if q.TopN < 1 {
			return fmt.Errorf("kplex: BatchTopK members need TopN >= 1, got %d", q.TopN)
		}
	default:
		return fmt.Errorf("kplex: unknown BatchMode %d", int(q.Mode))
	}
	return nil
}

// BatchResult is one member's answer. Count, MaxSize and the mode payload
// (TopK / Histogram) are exactly what the equivalent standalone query
// would report — except when Saturated is set: an all-top-k group that
// stopped its walk early reports exact TopK lists (that is what the
// saturation condition guarantees) but Count/MaxSize/Stats cover only the
// walked prefix, so they are lower bounds. Stats are the shared walk's
// counters with Emitted and MaxPlexSize rewritten to the member's own
// values — the walk is joint property of the group, so search counters
// (branches, prunes, steals) are shared by construction. Elapsed is the
// group walk's wall clock.
type BatchResult struct {
	Count     int64
	MaxSize   int
	TopK      [][]int       // BatchTopK only
	Histogram map[int]int64 // BatchHistogram only
	Stats     Stats
	Elapsed   time.Duration
	// Group is the index of the shared-traversal group that answered this
	// member (members with equal Group shared one walk).
	Group int
	// Saturated reports that the group's walk stopped early because no
	// unfinished seed could change any member's top-k answer. Possible
	// only for groups whose members are all top-k without OnPlex hooks (a
	// hooked member is promised its complete result set, so it disables
	// the early exit). TopK is exact; Count is a lower bound. Callers
	// caching results keyed as full enumerations must skip saturated ones.
	Saturated bool
}

// BatchGroup is one shared traversal: the cell it runs at and the queries
// it answers. Cell carries the group's K and UseCTCP, the loosest
// (minimum) Q of the members, and the execution knobs of the member with
// the most threads (hooks and resume knobs cleared) — so the widest
// member's parallelism serves the whole group.
type BatchGroup struct {
	Cell    Options
	Members []int // indices into the query slice, in submission order
}

// GroupBatch validates queries and partitions them into shared-traversal
// groups, keyed by (K, UseCTCP) in order of first appearance. Exposed so
// hosts that drive the walk themselves (the jobs layer checkpoints it
// seed by seed) share one grouping rule with RunBatch.
func GroupBatch(queries []BatchQuery) ([]BatchGroup, error) {
	type key struct {
		k    int
		ctcp bool
	}
	index := make(map[key]int)
	var groups []BatchGroup
	for i := range queries {
		q := &queries[i]
		if err := q.validate(); err != nil {
			return nil, fmt.Errorf("batch query %d: %w", i, err)
		}
		kk := key{q.Opts.K, q.Opts.UseCTCP}
		gi, ok := index[kk]
		if !ok {
			gi = len(groups)
			index[kk] = gi
			groups = append(groups, BatchGroup{Cell: q.Opts})
		}
		g := &groups[gi]
		g.Members = append(g.Members, i)
		if q.Opts.Q < g.Cell.Q {
			g.Cell.Q = q.Opts.Q
		}
		if q.Opts.Threads > g.Cell.Threads {
			// Adopt the widest member's execution knobs wholesale (scheduler,
			// timeout, bounds) so the group runs one coherent configuration.
			qq := g.Cell.Q
			g.Cell = q.Opts
			g.Cell.Q = qq
		}
	}
	for gi := range groups {
		c := &groups[gi].Cell
		c.OnPlex, c.OnPlexSeed, c.OnSeedDone = nil, nil, nil
		c.SkipSeeds, c.FirstOnly = nil, false
	}
	return groups, nil
}

// BatchRunner executes batches with host-supplied hooks. The zero value
// is valid (RunBatch uses it).
type BatchRunner struct {
	// Prepare, when non-nil, resolves each group's prologue handle — hosts
	// wire their prepared-graph cache here so a batch warms (and is warmed
	// by) the single-query cache. The options are the group's Cell; the
	// hook may finalize its execution knobs (Threads, TaskTimeout) for
	// the group's walk, for instance from a cost prediction over the
	// returned handle. When nil, the runner prepares directly from the
	// graph.
	Prepare func(cell *Options) (*Prepared, error)
	// OnResult, when non-nil, receives each member's result as soon as its
	// group's walk completes (members of one group land together, in
	// submission order). Called from the batch goroutine, never
	// concurrently.
	OnResult func(i int, r *BatchResult)
}

// RunBatch evaluates a set of queries against one graph, sharing a single
// seed-space traversal among every compatible group (see GroupBatch).
// Results are positionally aligned with queries. Each member's result is
// identical to what the equivalent standalone Run / EnumerateTopK /
// SizeHistogram call would report; the differential grid in batch_test.go
// pins that equivalence across the corpus, the sequential path and the
// parallel runtime.
func RunBatch(ctx context.Context, g graph.CSR, queries []BatchQuery) ([]BatchResult, error) {
	return (&BatchRunner{}).Run(ctx, g, queries)
}

// Run executes queries against g. Groups run one after another (each
// group's walk is internally parallel up to its Cell.Threads), so a batch
// never holds more than one group's working set.
func (br *BatchRunner) Run(ctx context.Context, g graph.CSR, queries []BatchQuery) ([]BatchResult, error) {
	groups, err := GroupBatch(queries)
	if err != nil {
		return nil, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	results := make([]BatchResult, len(queries))
	for gi := range groups {
		if err := br.runGroup(ctx, g, gi, &groups[gi], queries, results); err != nil {
			return nil, err
		}
		if br.OnResult != nil {
			for _, mi := range groups[gi].Members {
				br.OnResult(mi, &results[mi])
			}
		}
	}
	return results, nil
}

// batchMember is one member's part of its group's walk: the threshold its
// plexes must meet, its OnPlex hook, and the aggregate it reports from.
// The group's workers fill every member's aggregate under one group mutex.
type batchMember struct {
	q      int
	onPlex func([]int)
	agg    *Aggregate
}

// saturated reports whether a top-k member can no longer change: its list
// is full and its last entry is strictly larger than maxRemaining, the
// size bound of every unfinished seed. Strict: a tie could still replace
// the weakest entry with a lexicographically smaller plex. Called with the
// group mutex held.
func (m *batchMember) saturated(maxRemaining int) bool {
	top := m.agg.TopK
	return len(top) == m.agg.TopN && len(top[len(top)-1]) > maxRemaining
}

// seedBounds is the saturation bookkeeping of one group walk: bucket
// counts of unfinished seeds by their size bound, and the running
// maximum. Only built for all-top-k groups — it needs the OnSeedDone hook,
// whose per-task bookkeeping the other modes should not pay for.
type seedBounds struct {
	mu      sync.Mutex
	buckets []int // buckets[b] = unfinished seeds with bound b
	maxB    int   // largest b with buckets[b] > 0 (-1 when none)
	bound   []int // per-seed size bound: k + |laterNeighbors(seed)|
}

func newSeedBounds(p *Prepared) *seedBounds {
	n := p.pg.N()
	sb := &seedBounds{bound: make([]int, n), maxB: -1}
	for s := 0; s < n; s++ {
		b := p.k + len(p.pg.LaterNeighbors(s))
		sb.bound[s] = b
		if b >= len(sb.buckets) {
			sb.buckets = append(sb.buckets, make([]int, b+1-len(sb.buckets))...)
		}
		sb.buckets[b]++
		if b > sb.maxB {
			sb.maxB = b
		}
	}
	return sb
}

// seedDone retires one seed and returns the new maximum bound over the
// seeds still unfinished (-1 when all are done).
func (sb *seedBounds) seedDone(seed int) int {
	sb.mu.Lock()
	sb.buckets[sb.bound[seed]]--
	for sb.maxB >= 0 && sb.buckets[sb.maxB] == 0 {
		sb.maxB--
	}
	m := sb.maxB
	sb.mu.Unlock()
	return m
}

// errBatchSaturated is the internal cancel cause of a walk every top-k
// member of which has saturated; it never escapes to callers.
var errBatchSaturated = errValidation("kplex: batch group saturated")

// runGroup prepares (or resolves) the group's handle and walks its seed
// space once, fanning every discovered plex out to the members whose
// threshold it meets.
func (br *BatchRunner) runGroup(ctx context.Context, g graph.CSR, gi int, grp *BatchGroup, queries []BatchQuery, results []BatchResult) error {
	// Cancellation between groups must not start the next group's prologue:
	// Prepare is a full O(n+m) pass, and RunPrepared's own pre-check only
	// fires after it has been paid.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	var (
		p   *Prepared
		err error
	)
	if br.Prepare != nil {
		p, err = br.Prepare(&grp.Cell)
	} else {
		p, err = Prepare(g, grp.Cell)
	}
	if err != nil {
		return err
	}

	members := make([]*batchMember, len(grp.Members))
	allTopK := true
	for idx, mi := range grp.Members {
		q := &queries[mi]
		members[idx] = &batchMember{q: q.Opts.Q, onPlex: q.Opts.OnPlex, agg: newRunAggregate(q.TopN)}
		// A hooked member's callback is promised the complete result set; a
		// saturated stop would silently truncate it, so such a member
		// disables the early exit for its group.
		if q.Mode != BatchTopK || q.Opts.OnPlex != nil {
			allTopK = false
		}
	}

	if ctx == nil {
		ctx = context.Background()
	}
	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	var mu sync.Mutex
	opts := grp.Cell
	opts.OnPlex = func(pl []int) {
		mu.Lock()
		for _, m := range members {
			if len(pl) >= m.q {
				m.agg.add(pl)
			}
		}
		mu.Unlock()
		for _, m := range members {
			if m.onPlex != nil && len(pl) >= m.q {
				m.onPlex(pl)
			}
		}
	}
	if allTopK {
		sb := newSeedBounds(p)
		// The flag stops the walk synchronously (the next cancellation
		// check observes it); the context cancel records the cause so the
		// saturated stop is distinguishable from a real cancellation.
		stop := new(atomic.Bool)
		opts.earlyStop = stop
		opts.OnSeedDone = func(seed int, _ Stats) {
			maxRemaining := sb.seedDone(seed)
			mu.Lock()
			defer mu.Unlock()
			for _, m := range members {
				if !m.saturated(maxRemaining) {
					return
				}
			}
			cancel(errBatchSaturated)
			stop.Store(true)
		}
	}

	start := time.Now()
	res, runErr := RunPrepared(runCtx, p, opts)
	elapsed := time.Since(start)
	saturated := false
	if runErr != nil {
		if context.Cause(runCtx) != errBatchSaturated {
			// A real cancellation (caller's ctx, deadline): the members'
			// partial aggregates are not any query's answer.
			return runErr
		}
		// Saturated stop: every member's top-k answer is already final,
		// but the walked prefix undercounts the full enumeration.
		saturated = true
	}

	for idx, mi := range grp.Members {
		agg := members[idx].agg
		r := BatchResult{
			Count:     agg.Count,
			MaxSize:   agg.MaxSize,
			Stats:     res.Stats,
			Elapsed:   elapsed,
			Group:     gi,
			Saturated: saturated,
		}
		r.Stats.Emitted = r.Count
		r.Stats.MaxPlexSize = int64(r.MaxSize)
		switch queries[mi].Mode {
		case BatchTopK:
			r.TopK = agg.TopK
		case BatchHistogram:
			r.Histogram = agg.Histogram
		}
		results[mi] = r
	}
	return nil
}
