package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jobs"
	"repro/internal/kplex"
	"repro/internal/obs"
)

// queryRequest is the body of POST /query (and, field for field, the URL
// parameters of GET /stream). Graph, K, Q and Mode are required; the rest
// tune execution and never change the result set.
type queryRequest struct {
	Graph string `json:"graph"`
	K     int    `json:"k"`
	Q     int    `json:"q"`
	// Mode is one of "count", "topk", "histogram", "stream".
	Mode string `json:"mode"`
	// TopN bounds a topk query (default 10).
	TopN int `json:"topn,omitempty"`
	// Threads overrides the engine parallelism (default Config.DefaultThreads).
	Threads int `json:"threads,omitempty"`
	// Scheduler is "stages", "steal" or "auto" (default stages). "auto"
	// lets the server pick threads, scheduler and τ_time from the query's
	// predicted cost; execution knobs only, the result set and cache
	// identity are unchanged.
	Scheduler string `json:"scheduler,omitempty"`
	// Route is "sync" (default) or "auto": with "auto", a query whose
	// predicted runtime exceeds the server's async threshold is converted
	// into a durable background job and answered 202 with the job manifest
	// (requires the job subsystem; without it every query runs sync).
	// Stream mode is incompatible with route=auto.
	Route string `json:"route,omitempty"`
	// DeadlineMS bounds the query's wall-clock. A deadline hit is not an
	// error: the reply is HTTP 200 with partial:true, the count a true
	// lower bound over the fully-enumerated seed groups, the completed-seed
	// fraction, and — when the job subsystem is enabled — a durable resume
	// job already enumerating the remainder. Cacheable modes only.
	DeadlineMS int `json:"deadlineMs,omitempty"`
	// Sample, in (0, 1), enumerates a deterministic uniform subset of seed
	// groups and answers with an unbiased estimate of the exact count (and
	// histogram) plus a 95% confidence interval, at roughly Sample times
	// the cost. Modes count and histogram only; the rate is floored so at
	// least kplex.DefaultMinSampleSeeds seed groups run (tiny seed spaces
	// degrade to an exact census).
	Sample float64 `json:"sample,omitempty"`
}

// queryResponse is the body of a completed cacheable query.
type queryResponse struct {
	Graph     string        `json:"graph"`
	Digest    string        `json:"digest"`
	K         int           `json:"k"`
	Q         int           `json:"q"`
	Mode      string        `json:"mode"`
	Count     int64         `json:"count"`
	MaxSize   int           `json:"maxSize"`
	ElapsedMS float64       `json:"elapsedMs"` // of the original execution
	Cached    bool          `json:"cached"`    // served from the result cache
	Shared    bool          `json:"shared"`    // joined an in-flight identical query
	TopK      [][]int       `json:"topk,omitempty"`
	Histogram map[int]int64 `json:"histogram,omitempty"`
	Stats     kplex.Stats   `json:"stats"`

	// Deadline-bounded partial answers (see queryRequest.DeadlineMS).
	Partial      bool           `json:"partial,omitempty"`
	SeedsDone    int            `json:"seedsDone,omitempty"`
	TotalSeeds   int            `json:"totalSeeds,omitempty"`
	SeedFraction float64        `json:"seedFraction,omitempty"`
	ResumeJob    *jobs.Manifest `json:"resumeJob,omitempty"`
	// Sample carries the estimator's detail for sample:<rate> queries;
	// Count is then the rounded unbiased estimate.
	Sample *kplex.SampleEstimate `json:"sample,omitempty"`
}

// streamSummary is the final NDJSON line of a stream response; every
// preceding line is a JSON array holding one plex.
type streamSummary struct {
	Done      bool    `json:"done"`
	Count     int64   `json:"count"`
	Truncated bool    `json:"truncated"` // the enumeration was cancelled mid-way
	ElapsedMS float64 `json:"elapsedMs"`
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetricsProm)
	s.mux.HandleFunc("GET /graphs", s.handleListGraphs)
	s.mux.HandleFunc("POST /graphs", s.handleLoadGraph)
	s.mux.HandleFunc("DELETE /graphs/{name...}", s.handleEvictGraph)
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /batch", s.handleBatch)
	s.mux.HandleFunc("GET /stream", s.handleStreamGet)
	s.jobRoutes("/jobs", s.jobs, "job subsystem disabled: start kplexd with -jobs <dir>")
	s.clusterRoutes()
	s.debugRoutes()
}

// writeJSON writes v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // client disconnects are not server errors
}

// ndjsonFlusher resolves w's http.Flusher before the response header is
// written. NDJSON endpoints deliver lines incrementally when they can,
// but a ResponseWriter wrapped by middleware that hides Flusher must not
// break them: the response is then fully buffered — correct, just not
// incremental — and the header tells the client not to wait on
// line-by-line delivery.
func ndjsonFlusher(w http.ResponseWriter) http.Flusher {
	f, ok := w.(http.Flusher)
	if !ok {
		w.Header().Set("X-Kplexd-Buffered", "1")
	}
	return f
}

// fail writes a JSON error and scores the right counter.
func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	if code == http.StatusTooManyRequests {
		s.met.Rejected.Add(1)
	} else {
		s.met.Errors.Add(1)
	}
	writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"counters":         s.Metrics(),
		"cache_entries":    s.cache.len(),
		"resident_graphs":  s.reg.Len(),
		"prepared_entries": s.prep.len(),
		"tenants":          s.qos.Snapshot(),
	})
}

func (s *Server) handleListGraphs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.List())
}

// handleLoadGraph warms the registry: {"name": "..."} loads (or touches)
// the graph and returns its listing row, so operators can pay parse cost
// ahead of the first query.
func (s *Server) handleLoadGraph(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&body); err != nil || body.Name == "" {
		s.fail(w, http.StatusBadRequest, "body must be {\"name\": \"<graph>\"}")
		return
	}
	e, err := s.reg.Acquire(body.Name)
	if err != nil {
		s.fail(w, http.StatusNotFound, err.Error())
		return
	}
	info := GraphInfo{Name: e.Name, Digest: e.Digest, N: e.G.N(), M: e.G.M()}
	s.reg.Release(e)
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleEvictGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	switch err := s.reg.Evict(name); {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]string{"evicted": name})
	case errors.Is(err, ErrInUse):
		s.fail(w, http.StatusConflict, err.Error())
	default:
		s.fail(w, http.StatusNotFound, err.Error())
	}
}

// parseOptions validates the request and builds the engine Options.
func (s *Server) parseOptions(req *queryRequest) (kplex.Options, error) {
	if req.Graph == "" {
		return kplex.Options{}, fmt.Errorf("graph is required")
	}
	if req.K < 1 || req.K > s.cfg.MaxK {
		return kplex.Options{}, fmt.Errorf("k must be in [1, %d], got %d", s.cfg.MaxK, req.K)
	}
	switch req.Mode {
	case "count", "topk", "histogram", "stream":
	default:
		return kplex.Options{}, fmt.Errorf("mode must be count, topk, histogram or stream, got %q", req.Mode)
	}
	if req.Mode == "topk" {
		if req.TopN == 0 {
			req.TopN = 10
		}
		if req.TopN < 1 || req.TopN > s.cfg.MaxTopN {
			return kplex.Options{}, fmt.Errorf("topn must be in [1, %d], got %d", s.cfg.MaxTopN, req.TopN)
		}
	}
	if req.Threads < 0 || req.Threads > s.cfg.MaxThreads {
		return kplex.Options{}, fmt.Errorf("threads must be in [0, %d], got %d", s.cfg.MaxThreads, req.Threads)
	}
	opts := kplex.NewOptions(req.K, req.Q)
	opts.Threads = req.Threads
	if opts.Threads <= 0 {
		opts.Threads = s.cfg.DefaultThreads
	}
	// "auto" keeps the provisional stages default, finalized against the
	// predicted cost once the prepared prologue (and with it the cost
	// features) is resident.
	if req.Scheduler != "auto" {
		sched, err := kplex.ParseScheduler(req.Scheduler)
		if err != nil {
			return kplex.Options{}, err
		}
		opts.Scheduler = sched
	}
	switch req.Route {
	case "", "sync":
	case "auto":
		if req.Mode == "stream" {
			return kplex.Options{}, fmt.Errorf("route=auto applies to cacheable modes only, not stream")
		}
	default:
		return kplex.Options{}, fmt.Errorf("route must be sync or auto, got %q", req.Route)
	}
	if req.DeadlineMS < 0 {
		return kplex.Options{}, fmt.Errorf("deadlineMs must be >= 0, got %d", req.DeadlineMS)
	}
	if req.DeadlineMS > 0 && req.Mode == "stream" {
		return kplex.Options{}, fmt.Errorf("deadlineMs applies to cacheable modes only; a stream is bounded by its client")
	}
	if req.Sample != 0 {
		if req.Sample < 0 || req.Sample >= 1 {
			return kplex.Options{}, fmt.Errorf("sample must be in (0, 1), got %v", req.Sample)
		}
		if req.Mode != "count" && req.Mode != "histogram" {
			return kplex.Options{}, fmt.Errorf("sample estimates count and histogram modes only, got %q", req.Mode)
		}
		if req.DeadlineMS > 0 {
			return kplex.Options{}, fmt.Errorf("sample and deadlineMs are mutually exclusive bounded-answer modes")
		}
	}
	if opts.Threads > 1 {
		// Straggler splitting: a service must not let one deep subtree pin
		// a worker while its siblings idle (Section 6's τ_time).
		opts.TaskTimeout = kplex.DefaultTaskTimeout
	}
	if err := opts.Validate(); err != nil {
		return kplex.Options{}, err
	}
	return opts, nil
}

// cacheKey is the result-cache identity of a cacheable query: content
// digest of the graph, the normalized result-defining options, the mode,
// and the mode's own parameters.
func cacheKey(digest string, opts *kplex.Options, req *queryRequest) string {
	key := digest + "|" + opts.ResultKey() + "|" + req.Mode
	if req.Mode == "topk" {
		key += "|n=" + strconv.Itoa(req.TopN)
	}
	if req.Sample > 0 {
		// An estimate must never answer (or be answered by) an exact query.
		key += "|sample=" + strconv.FormatFloat(req.Sample, 'g', -1, 64)
	}
	return key
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	opts, err := s.parseOptions(&req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Mode == "stream" {
		s.serveStream(w, r, &req, opts)
		return
	}
	tenant := tenantOf(r)
	s.met.Queries.Add(1)
	s.tenantQueries.Add(tenant, 1)
	t := obs.FromContext(r.Context())
	started := time.Now()
	inf := s.inflight.Register("query", req.Graph, req.K, req.Q, req.Mode, t.ID())
	defer func() {
		inf.Done()
		s.hist.query.ObserveSince(started)
		s.recordSlow(slowRecord{Kind: "query", Graph: req.Graph, K: req.K, Q: req.Q, Mode: req.Mode, TraceID: t.ID()}, started)
	}()

	entry, err := s.reg.Acquire(req.Graph)
	if err != nil {
		s.fail(w, http.StatusNotFound, err.Error())
		return
	}
	defer s.reg.Release(entry)

	key := cacheKey(entry.Digest, &opts, &req)
	if val, ok := s.cache.get(key); ok {
		s.met.CacheHits.Add(1)
		t.StartSpan("cache").Attr("hit", "true").End()
		s.respond(w, &req, entry, val, true, false)
		return
	}
	s.met.CacheMisses.Add(1)

	if req.DeadlineMS > 0 {
		// Partial results must not poison the cache or be flight-shared; the
		// deadline path runs outside both (a full-result finish still caches).
		s.executeDeadline(w, r, t, inf, entry, &req, opts, tenant, key)
		return
	}

	if req.Route == "auto" && s.jobs != nil && req.Sample == 0 {
		if man, pred, routed := s.maybeRouteAsync(entry, &req, opts, tenant); routed {
			s.met.RoutedAsync.Add(1)
			writeJSON(w, http.StatusAccepted, map[string]any{
				"job":         man,
				"predictedMs": float64(pred) / float64(time.Millisecond),
			})
			return
		}
	}

	flightSpan := t.StartSpan("singleflight")
	val, fromCache, shared, err := s.flight.do(key, func() (*queryResult, bool, error) {
		// A just-finished flight may have filled the cache between our miss
		// and this call; re-check before paying for an enumeration.
		if val, ok := s.cache.get(key); ok {
			return val, true, nil
		}
		inf.SetStage("admission")
		admSpan := t.StartSpan("admission")
		// The admission wait is bounded by the leader's request context: a
		// client that gives up while queued must free its place instead of
		// parking a server-lifetime waiter. Execution below stays detached
		// (s.baseCtx) — once a slot is held the result is cacheable and
		// worth finishing for the next identical query.
		release, err := s.admit(r.Context(), tenant)
		admSpan.EndErr(err)
		if err != nil {
			return nil, false, err
		}
		defer release()
		s.met.Executions.Add(1)
		var val *queryResult
		if req.Sample > 0 {
			val, err = s.executeSampled(t, inf, entry, &req, opts)
		} else {
			val, err = s.execute(t, inf, entry, &req, opts)
		}
		if err != nil {
			return nil, false, err
		}
		s.cache.put(key, val)
		return val, false, nil
	})
	if shared {
		flightSpan.Attr("shared", "true")
	}
	flightSpan.EndErr(err)
	if err != nil {
		switch {
		case isOverload(err):
			s.reject429(w, err)
		case errors.Is(err, context.Canceled):
			// The flight leader's client left during the admission wait; the
			// leader is gone and any followers should simply retry.
			s.fail(w, http.StatusServiceUnavailable, "query abandoned during admission: "+err.Error())
		case errors.Is(err, context.DeadlineExceeded):
			s.fail(w, http.StatusGatewayTimeout, "query exceeded the server's time budget")
		default:
			s.fail(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	// Exactly one counter per answered query: served from cache, shared an
	// in-flight call, or executed (counted inside the flight fn).
	switch {
	case fromCache:
		s.met.CacheHits.Add(1)
	case shared:
		s.met.FlightShared.Add(1)
	}
	s.respond(w, &req, entry, val, fromCache, shared)
}

// execute runs one cacheable enumeration. The context is detached from the
// requesting client: the result is cacheable, so completing it is useful
// even if the first asker is gone; Config.QueryTimeout is its bound and
// Server.Close its shutdown path. The run goes through the prepared-graph
// cache, so only the first query of a (digest, k, q) cell pays the O(n+m)
// prologue. t and inf are the executing request's trace and in-flight
// handle (both nil-safe); requests that share this execution through
// singleflight see only their own "singleflight" span.
func (s *Server) execute(t *obs.Trace, inf *obs.InflightEntry, entry *GraphEntry, req *queryRequest, opts kplex.Options) (*queryResult, error) {
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.QueryTimeout)
	defer cancel()
	inf.SetStage("prepare")
	prepSpan := t.StartSpan("prepare").Attr("graph", req.Graph)
	p, err := s.prepared(entry.G, entry.Digest, &opts)
	prepSpan.EndErr(err)
	if err != nil {
		return nil, err
	}
	inf.SetSeedsTotal(int64(p.SeedSpace()))
	inf.SetPredicted(s.router.predict(p.CostFeatures()))
	if req.Scheduler == "auto" {
		tuneFor(s.router.predict(p.CostFeatures()), req.Threads, s.cfg.DefaultThreads, &opts)
		s.met.AutoTuned.Add(1)
	}
	// Service executions always carry the phase timers and the per-seed
	// progress hook: both are execution-only (never in the cache key), and
	// their cost — two clock reads per seed build plus an atomic increment
	// per seed — is noise against the HTTP round-trip the request already
	// paid. The engine's direct API keeps its zero-overhead default.
	opts.PhaseTimers = true
	opts.OnSeedDone = func(int, kplex.Stats) { inf.SeedDone() }
	inf.SetStage("enumerate")
	enumSpan := t.StartSpan("enumerate").Attr("mode", req.Mode)
	val := &queryResult{Mode: req.Mode, Digest: entry.Digest, ComputedAt: time.Now()}
	var res kplex.Result
	switch req.Mode {
	case "count":
		res, err = kplex.RunPrepared(ctx, p, opts)
	case "topk":
		val.TopK, res, err = kplex.EnumerateTopKPrepared(ctx, p, opts, req.TopN)
		if val.TopK == nil {
			val.TopK = [][]int{} // encode as [] rather than null
		}
	case "histogram":
		val.Histogram, res, err = kplex.SizeHistogramPrepared(ctx, p, opts)
	}
	if err != nil {
		enumSpan.EndErr(err)
		return nil, err
	}
	enumSpan.Attr("count", fmt.Sprint(res.Count)).
		Attr("seedBuildMs", fmt.Sprintf("%.3f", float64(res.Stats.SeedBuildNS)/1e6)).
		Attr("branchMs", fmt.Sprintf("%.3f", float64(res.Stats.BranchNS)/1e6)).
		End()
	val.Count = res.Count
	val.MaxSize = int(res.Stats.MaxPlexSize)
	val.Elapsed = res.Elapsed
	val.Stats = res.Stats
	s.observeCost(p.CostFeatures(), res.Elapsed)
	return val, nil
}

// maybeRouteAsync converts a route=auto query into a background job when
// its calibrated predicted runtime exceeds the async threshold. A false
// return (prediction under threshold, prologue failure, submit failure)
// falls through to the synchronous path, which will surface any real error
// with proper status mapping.
func (s *Server) maybeRouteAsync(entry *GraphEntry, req *queryRequest, opts kplex.Options, tenant string) (*jobs.Manifest, time.Duration, bool) {
	p, err := s.prepared(entry.G, entry.Digest, &opts)
	if err != nil {
		return nil, 0, false
	}
	pred := s.router.predict(p.CostFeatures())
	if pred <= s.cfg.RouteAsyncThreshold {
		return nil, pred, false
	}
	spec := jobs.Spec{Graph: req.Graph, K: req.K, Q: req.Q, Threads: req.Threads, Tenant: tenant}
	if req.Mode == "topk" {
		spec.TopN = req.TopN
	}
	if req.Scheduler == "auto" {
		// Predicted past the async threshold: that is tuneFor's top tier.
		spec.Scheduler = "steal"
	} else {
		spec.Scheduler = req.Scheduler
	}
	man, err := s.jobs.Submit(spec)
	if err != nil {
		return nil, 0, false
	}
	return man, pred, true
}

func (s *Server) respond(w http.ResponseWriter, req *queryRequest, entry *GraphEntry, val *queryResult, cached, shared bool) {
	writeJSON(w, http.StatusOK, queryResponse{
		Graph:     req.Graph,
		Digest:    entry.Digest,
		K:         req.K,
		Q:         req.Q,
		Mode:      req.Mode,
		Count:     val.Count,
		MaxSize:   val.MaxSize,
		ElapsedMS: float64(val.Elapsed) / float64(time.Millisecond),
		Cached:    cached,
		Shared:    shared,
		TopK:      val.TopK,
		Histogram: val.Histogram,
		Stats:     val.Stats,
		Sample:    val.Sample,
	})
}

// handleStreamGet adapts GET /stream?graph=..&k=..&q=..[&threads=..
// &scheduler=..] to the streaming path, for clients (curl, browsers) that
// cannot POST bodies comfortably.
func (s *Server) handleStreamGet(w http.ResponseWriter, r *http.Request) {
	qs := r.URL.Query()
	atoi := func(key string) int {
		v, _ := strconv.Atoi(qs.Get(key))
		return v
	}
	req := queryRequest{
		Graph:     qs.Get("graph"),
		K:         atoi("k"),
		Q:         atoi("q"),
		Mode:      "stream",
		Threads:   atoi("threads"),
		Scheduler: qs.Get("scheduler"),
	}
	opts, err := s.parseOptions(&req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serveStream(w, r, &req, opts)
}

// serveStream answers a stream-mode query as NDJSON: one JSON array per
// plex, then a summary object. Results flow straight from the engine's
// bounded channel; a disconnecting client cancels the request context,
// which stops the enumeration (no goroutine survives an abandoned
// stream). Stream results are not cached: the transfer, not the
// enumeration, dominates them, and caching materialised result sets is
// exactly what the streaming path exists to avoid.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request, req *queryRequest, opts kplex.Options) {
	tenant := tenantOf(r)
	s.met.Streams.Add(1)
	s.tenantQueries.Add(tenant, 1)
	t := obs.FromContext(r.Context())
	started := time.Now()
	inf := s.inflight.Register("stream", req.Graph, req.K, req.Q, req.Mode, t.ID())
	defer func() {
		inf.Done()
		s.hist.stream.ObserveSince(started)
		s.recordSlow(slowRecord{Kind: "stream", Graph: req.Graph, K: req.K, Q: req.Q, Mode: req.Mode, TraceID: t.ID()}, started)
	}()
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	inf.SetStage("admission")
	admSpan := t.StartSpan("admission")
	release, err := s.admit(ctx, tenant)
	admSpan.EndErr(err)
	if err != nil {
		if isOverload(err) {
			s.reject429(w, err)
		} else {
			s.fail(w, http.StatusBadRequest, "client went away: "+err.Error())
		}
		return
	}
	defer release()

	entry, err := s.reg.Acquire(req.Graph)
	if err != nil {
		s.fail(w, http.StatusNotFound, err.Error())
		return
	}
	defer s.reg.Release(entry)

	opts.StreamBuffer = s.cfg.StreamBuffer
	inf.SetStage("prepare")
	prepSpan := t.StartSpan("prepare").Attr("graph", req.Graph)
	p, err := s.prepared(entry.G, entry.Digest, &opts)
	prepSpan.EndErr(err)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	inf.SetSeedsTotal(int64(p.SeedSpace()))
	inf.SetPredicted(s.router.predict(p.CostFeatures()))
	if req.Scheduler == "auto" {
		tuneFor(s.router.predict(p.CostFeatures()), req.Threads, s.cfg.DefaultThreads, &opts)
		s.met.AutoTuned.Add(1)
	}
	opts.PhaseTimers = true
	opts.OnSeedDone = func(int, kplex.Stats) { inf.SeedDone() }
	inf.SetStage("enumerate")
	streamSpan := t.StartSpan("enumerate").Attr("mode", "stream")
	h, err := kplex.RunStreamPrepared(ctx, p, opts)
	if err != nil {
		streamSpan.EndErr(err)
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Graph-Digest", entry.Digest)
	flusher := ndjsonFlusher(w)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	lines := 0
	lastFlush := time.Now()
	for p := range h.C() {
		if err := enc.Encode(p); err != nil {
			cancel() // writer dead: stop the engine, then drain to the close
			break
		}
		lines++
		s.met.StreamedPlexes.Add(1)
		if flusher != nil && (lines&63 == 0 || time.Since(lastFlush) > 100*time.Millisecond) {
			flusher.Flush()
			lastFlush = time.Now()
		}
	}
	res, runErr := h.Wait()
	if runErr != nil {
		s.met.StreamsCancelled.Add(1)
	} else {
		s.observeCost(p.CostFeatures(), res.Elapsed)
	}
	// A client that disconnected mid-stream cancelled the work; that is a
	// "cancelled" span, not a "failed" one — only a genuine engine error
	// marks the stream failed.
	if runErr != nil && r.Context().Err() != nil {
		streamSpan.Attr("plexes", fmt.Sprint(lines)).EndStatus("cancelled")
	} else {
		streamSpan.Attr("plexes", fmt.Sprint(lines)).EndErr(runErr)
	}
	enc.Encode(streamSummary{ //nolint:errcheck // best effort on a dying conn
		Done:      runErr == nil,
		Count:     res.Count,
		Truncated: runErr != nil,
		ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond),
	})
	if flusher != nil {
		flusher.Flush()
	}
}
