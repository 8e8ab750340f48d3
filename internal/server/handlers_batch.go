package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/kplex"
	"repro/internal/obs"
)

// POST /batch: batched multi-query execution. A batch is a set of
// (k, q, mode) items against one graph; the server answers every item it
// can from the result cache and hands the rest to the engine's
// shared-traversal batch layer, so a q-sweep pays one prologue and one
// seed-space walk per compatible (k, useCTCP) group instead of one per
// item. Group prologues resolve through the same prepared cache and the
// per-item results land in the same result cache as single queries — a
// batch warms the single-query path and vice versa. The response is
// NDJSON: one line per item as its result becomes available (cached items
// first, then each traversal group's members as the group completes),
// then a summary line.

// batchItem is one query of a POST /batch request.
type batchItem struct {
	K int `json:"k"`
	Q int `json:"q"`
	// Mode is "count", "topk" or "histogram" ("stream" is not batchable).
	Mode string `json:"mode"`
	TopN int    `json:"topn,omitempty"`
}

// batchRequest is the body of POST /batch. Execution knobs apply to the
// whole batch.
type batchRequest struct {
	Graph     string      `json:"graph"`
	Items     []batchItem `json:"items"`
	Threads   int         `json:"threads,omitempty"`
	Scheduler string      `json:"scheduler,omitempty"`
}

// batchItemResponse is one per-item NDJSON line.
type batchItemResponse struct {
	Item      int           `json:"item"` // index into the request's items
	K         int           `json:"k"`
	Q         int           `json:"q"`
	Mode      string        `json:"mode"`
	Count     int64         `json:"count"`
	MaxSize   int           `json:"maxSize"`
	ElapsedMS float64       `json:"elapsedMs"`           // of the original execution
	Cached    bool          `json:"cached"`              // served from the result cache
	Shared    bool          `json:"shared"`              // duplicate of an earlier item in this batch
	Saturated bool          `json:"saturated,omitempty"` // top-k early exit: topk exact, count a lower bound
	Group     int           `json:"group"`               // shared-traversal group (-1 when cached/shared)
	TopK      [][]int       `json:"topk,omitempty"`      // mode "topk"
	Histogram map[int]int64 `json:"histogram,omitempty"` // mode "histogram" (same key as /query)
	Stats     *kplex.Stats  `json:"stats,omitempty"`     // executed items only
}

// batchSummary is the final NDJSON line.
type batchSummary struct {
	Done       bool    `json:"done"`
	Items      int     `json:"items"`
	CacheHits  int     `json:"cacheHits"`
	Shared     int     `json:"flightShared"`
	Executions int     `json:"executions"`
	Groups     int     `json:"groups"` // shared traversals actually walked
	ElapsedMS  float64 `json:"elapsedMs"`
	Error      string  `json:"error,omitempty"`
}

// maxBatchItems bounds one batch request; an open service needs a ceiling
// on per-request fan-out just as it does on k and threads.
const maxBatchItems = 256

// parseBatch validates every item of req up front — a batch is
// all-or-nothing at the request level, so a bad item must fail before any
// line is written — and returns each item as a single query with its
// engine options.
func (s *Server) parseBatch(req *batchRequest) ([]queryRequest, []kplex.Options, error) {
	if len(req.Items) == 0 {
		return nil, nil, errors.New("items must hold at least one query")
	}
	if len(req.Items) > maxBatchItems {
		return nil, nil, fmt.Errorf("too many items (max %d)", maxBatchItems)
	}
	itemReqs := make([]queryRequest, len(req.Items))
	itemOpts := make([]kplex.Options, len(req.Items))
	for i, it := range req.Items {
		if it.Mode == "stream" {
			return nil, nil, fmt.Errorf("item %d: stream mode is not batchable; use /stream per query", i)
		}
		itemReqs[i] = queryRequest{
			Graph:     req.Graph,
			K:         it.K,
			Q:         it.Q,
			Mode:      it.Mode,
			TopN:      it.TopN,
			Threads:   req.Threads,
			Scheduler: req.Scheduler,
		}
		opts, err := s.parseOptions(&itemReqs[i])
		if err != nil {
			return nil, nil, fmt.Errorf("item %d: %w", i, err)
		}
		itemOpts[i] = opts
	}
	return itemReqs, itemOpts, nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	itemReqs, itemOpts, err := s.parseBatch(&req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}

	tenant := tenantOf(r)
	s.met.Batches.Add(1)
	s.met.Queries.Add(int64(len(req.Items))) // each item is one query
	s.met.TenantQueries.Add(tenant, int64(len(req.Items)))
	t := obs.FromContext(r.Context())
	started := time.Now()
	inf := s.inflight.Register("batch", req.Graph, 0, 0, "batch", t.ID())
	defer func() {
		inf.Done()
		s.met.BatchDuration.ObserveSince(started)
		s.recordSlow(slowRecord{Kind: "batch", Graph: req.Graph, Items: len(req.Items), TraceID: t.ID()}, started)
	}()

	entry, err := s.reg.Acquire(req.Graph)
	if err != nil {
		s.fail(w, http.StatusNotFound, err.Error())
		return
	}
	defer s.reg.Release(entry)

	// Partition the items: result-cache hits answer immediately; the rest
	// dedupe by cache key (a duplicate joins its twin's execution exactly
	// like a singleflight-shared query) and go to the engine as one batch.
	type pending struct {
		item int // first item with this key
		dups []int
	}
	var (
		cachedLines []batchItemResponse
		keys        = make([]string, len(req.Items))
		order       []*pending // uncached unique items, submission order
		byKey       = make(map[string]*pending)
	)
	for i := range req.Items {
		keys[i] = cacheKey(entry.Digest, &itemOpts[i], &itemReqs[i])
		if val, ok := s.cache.get(keys[i]); ok {
			s.met.CacheHits.Add(1)
			cachedLines = append(cachedLines, batchLine(i, &itemReqs[i], val, true, false, -1, false))
			continue
		}
		s.met.CacheMisses.Add(1)
		if p, ok := byKey[keys[i]]; ok {
			p.dups = append(p.dups, i)
			continue
		}
		p := &pending{item: i}
		byKey[keys[i]] = p
		order = append(order, p)
	}

	start := time.Now()

	// The run carries the batch's execution knobs, shared by every item.
	x := s.newRun(t, inf, &queryRequest{Graph: req.Graph, Threads: req.Threads, Scheduler: req.Scheduler})
	if len(order) > 0 {
		// One admission slot covers the whole batch: its groups run one
		// after another, so a batch occupies one enumeration's worth of
		// capacity however many items it answers.
		release := x.admitOrFail(r.Context(), w, tenant)
		if release == nil {
			return
		}
		defer release()

		// A twin request (batch or single query) may have filled the cache
		// while we waited for a slot — the same reason the single-query
		// path re-checks inside its flight. Items cached meanwhile answer
		// as hits (their in-batch duplicates with them) instead of paying
		// another walk.
		still := order[:0:0]
		for _, p := range order {
			val, ok := s.cache.get(keys[p.item])
			if !ok {
				still = append(still, p)
				continue
			}
			s.met.CacheHits.Add(1)
			cachedLines = append(cachedLines, batchLine(p.item, &itemReqs[p.item], val, true, false, -1, false))
			for _, d := range p.dups {
				s.met.CacheHits.Add(1)
				cachedLines = append(cachedLines, batchLine(d, &itemReqs[d], val, true, false, -1, false))
			}
		}
		order = still
	}
	summary := batchSummary{Items: len(req.Items), CacheHits: len(cachedLines)}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Graph-Digest", entry.Digest)
	flusher := ndjsonFlusher(w)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	for i := range cachedLines {
		enc.Encode(&cachedLines[i]) //nolint:errcheck // client disconnects cancel via r.Context()
	}
	flush()

	var runErr error
	if len(order) > 0 {
		queries := make([]kplex.BatchQuery, len(order))
		for ui, p := range order {
			timePhases(&itemOpts[p.item])
			queries[ui] = batchQueryFor(&itemReqs[p.item], itemOpts[p.item])
		}
		// The batch is tied to the requesting client (it is watching the
		// NDJSON progress) and to the query time budget; items completed
		// before a disconnect are already cached for the next asker.
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
		defer cancel()
		groups := 0
		// The enumerate span opens once the first group's prologue is
		// resident. A later group's prologue runs inside it and is taken
		// out, so enumerate time never counts what a prepare span counts.
		var span *obs.Span
		open := func() {
			span = x.open().Attr("mode", "batch").Attr("items", strconv.Itoa(len(order)))
		}
		runner := &kplex.BatchRunner{
			Prepare: func(cell *kplex.Options) (*kplex.Prepared, error) {
				groups++
				defer inf.SetStage("enumerate")
				t0 := time.Now()
				p, err := x.prepare(entry, *cell)
				if span == nil {
					open()
				} else {
					span.Exclude(time.Since(t0))
				}
				if err == nil {
					x.tune(x.predict(p.SeedSpace()), cell)
				}
				return p, err
			},
			OnResult: func(ui int, br *kplex.BatchResult) {
				p := order[ui]
				val := &queryResult{
					Mode:       itemReqs[p.item].Mode,
					Count:      br.Count,
					MaxSize:    br.MaxSize,
					Elapsed:    br.Elapsed,
					Stats:      br.Stats,
					TopK:       br.TopK,
					Histogram:  br.Histogram,
					Digest:     entry.Digest,
					ComputedAt: time.Now(),
				}
				// A saturated all-top-k group reports exact TopK lists but a
				// prefix Count; the result cache is keyed as a full
				// enumeration (the single-query topk path stores the full
				// count), so a saturated result must not warm it.
				if !br.Saturated {
					s.cache.put(keys[p.item], val)
				}
				s.met.Executions.Add(1)
				summary.Executions++
				line := batchLine(p.item, &itemReqs[p.item], val, false, false, br.Group, br.Saturated)
				enc.Encode(&line) //nolint:errcheck
				for _, d := range p.dups {
					s.met.FlightShared.Add(1)
					summary.Shared++
					dup := batchLine(d, &itemReqs[d], val, false, true, br.Group, br.Saturated)
					enc.Encode(&dup) //nolint:errcheck
				}
				flush()
			},
		}
		_, runErr = runner.Run(ctx, entry.G, queries)
		if span == nil {
			open() // the batch failed before any group was prepared
		}
		summary.Groups = groups
		span.Attr("groups", strconv.Itoa(groups)).EndErr(runErr)
	}

	summary.Done = runErr == nil
	if runErr != nil {
		summary.Error = runErr.Error()
		s.met.Errors.Add(1)
	}
	summary.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	enc.Encode(&summary) //nolint:errcheck
	flush()
}

// batchLine renders one item's NDJSON line from a (possibly cached)
// result.
func batchLine(item int, req *queryRequest, val *queryResult, cached, shared bool, group int, saturated bool) batchItemResponse {
	line := batchItemResponse{
		Item:      item,
		K:         req.K,
		Q:         req.Q,
		Mode:      req.Mode,
		Count:     val.Count,
		MaxSize:   val.MaxSize,
		ElapsedMS: float64(val.Elapsed) / float64(time.Millisecond),
		Cached:    cached,
		Shared:    shared,
		Saturated: saturated,
		Group:     group,
		TopK:      val.TopK,
		Histogram: val.Histogram,
	}
	if !cached && !shared {
		stats := val.Stats
		line.Stats = &stats
	}
	return line
}

// batchQueryFor translates one validated item into an engine batch query.
func batchQueryFor(req *queryRequest, opts kplex.Options) kplex.BatchQuery {
	bq := kplex.BatchQuery{Opts: opts}
	switch req.Mode {
	case "topk":
		bq.Mode = kplex.BatchTopK
		bq.TopN = req.TopN
	case "histogram":
		bq.Mode = kplex.BatchHistogram
	default:
		bq.Mode = kplex.BatchCount
	}
	return bq
}
