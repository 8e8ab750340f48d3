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
	// Scheduler is "stages", "steal" or "auto". The first two (and empty)
	// run the same barrier-free claim with the request's threads and the
	// default τ_time; "auto" lets the server pick threads and τ_time from
	// the query's predicted cost. Execution knobs only: the result set and
	// cache identity are unchanged.
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
	// Sample, in (0, 1], enumerates a deterministic uniform subset of seed
	// groups and answers with an unbiased estimate of the exact count (and
	// histogram) plus a 95% confidence interval, at roughly Sample times
	// the cost. Modes count and histogram only; the rate is floored so at
	// least kplex.DefaultMinSampleSeeds seed groups run (tiny seed spaces
	// degrade to an exact census, as does Sample 1).
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
	switch req.Mode {
	case "count", "topk", "histogram", "stream":
	default:
		return kplex.Options{}, fmt.Errorf("mode must be count, topk, histogram or stream, got %q", req.Mode)
	}
	topn := 0 // only a topk query has a budget to check
	if req.Mode == "topk" {
		if req.TopN == 0 {
			req.TopN = kplex.DefaultTopN
		}
		topn = req.TopN
	}
	// "auto" keeps the provisional defaults, finalized against the
	// predicted cost once the prepared prologue (and with it the cost
	// features) is resident.
	sched := req.Scheduler
	if sched == "auto" {
		sched = ""
	}
	opts, err := s.options(req.K, req.Q, req.Threads, topn, sched)
	if err != nil {
		return kplex.Options{}, err
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
		if req.Sample < 0 || req.Sample > 1 {
			return kplex.Options{}, fmt.Errorf("sample must be in (0, 1], got %v", req.Sample)
		}
		if req.Mode != "count" && req.Mode != "histogram" {
			return kplex.Options{}, fmt.Errorf("sample estimates count and histogram modes only, got %q", req.Mode)
		}
		if req.DeadlineMS > 0 {
			return kplex.Options{}, fmt.Errorf("sample and deadlineMs are mutually exclusive bounded-answer modes")
		}
	}
	return opts, nil
}

// options holds a request's (k, q) cell and execution knobs to the host's
// ceilings and builds its validated engine options. /query, /stream,
// /batch and /cluster/run build theirs here; a job's are built by its
// manager from the same kplex.ServiceOptions, after submit has checked
// the same ceilings.
func (s *Server) options(k, q, threads, topn int, scheduler string) (kplex.Options, error) {
	if err := s.checkCeilings(k, threads, topn); err != nil {
		return kplex.Options{}, err
	}
	return kplex.ServiceOptions(k, q, threads, s.cfg.DefaultThreads, scheduler)
}

// checkCeilings holds k, threads and a top-k budget to Config.MaxK,
// MaxThreads and MaxTopN; threads and topn 0 ask for the default. An open
// service needs the ceilings: enumeration cost explodes with k, and the
// engine spawns a worker, a queue and scratch buffers per thread.
func (s *Server) checkCeilings(k, threads, topn int) error {
	if k < 1 || k > s.cfg.MaxK {
		return fmt.Errorf("k must be in [1, %d], got %d", s.cfg.MaxK, k)
	}
	if topn < 0 || topn > s.cfg.MaxTopN {
		return fmt.Errorf("topn must be in [0, %d], got %d", s.cfg.MaxTopN, topn)
	}
	if threads < 0 || threads > s.cfg.MaxThreads {
		return fmt.Errorf("threads must be in [0, %d], got %d", s.cfg.MaxThreads, threads)
	}
	return nil
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
	s.met.TenantQueries.Add(tenant, 1)
	t := obs.FromContext(r.Context())
	started := time.Now()
	inf := s.inflight.Register("query", req.Graph, req.K, req.Q, req.Mode, t.ID())
	defer func() {
		inf.Done()
		s.met.QueryDuration.ObserveSince(started)
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
		writeJSON(w, http.StatusOK, answer(&req, val, true, false))
		return
	}
	s.met.CacheMisses.Add(1)

	if req.DeadlineMS > 0 {
		// Partial results must not poison the cache or be flight-shared; the
		// deadline path runs outside both (a full-result finish still caches).
		s.executeDeadline(w, r, s.newRun(t, inf, &req), entry, opts, tenant, key)
		return
	}

	// A route=auto query decides between this request and a background job
	// inside its flight, after admission and its one prepare stage. Its
	// flight key is its own, so a synchronous query never shares a flight
	// that answers with a job.
	routeAuto := req.Route == "auto" && s.jobs != nil && req.Sample == 0
	flightKey := key
	if routeAuto {
		flightKey += "|route=auto"
	}

	flightSpan := t.StartSpan("singleflight")
	val, fromCache, shared, err := s.flight.do(flightKey, func() (*queryResult, bool, error) {
		// A just-finished flight may have filled the cache between our miss
		// and this call; re-check before paying for an enumeration.
		if val, ok := s.cache.get(key); ok {
			return val, true, nil
		}
		x := s.newRun(t, inf, &req)
		// The admission wait is bounded by the leader's request context: a
		// client that gives up while queued must free its place instead of
		// parking a server-lifetime waiter. Execution below stays detached
		// (s.baseCtx) — once a slot is held the result is cacheable and
		// worth finishing for the next identical query.
		release, err := x.admit(r.Context(), tenant)
		if err != nil {
			return nil, false, err
		}
		defer release()
		var val *queryResult
		if req.Sample > 0 {
			s.met.Executions.Add(1)
			val, err = s.executeSampled(x, entry, opts)
		} else {
			var p *kplex.Prepared
			p, err = x.prepare(entry, opts)
			if err == nil && routeAuto {
				if job := s.routeAsync(p, &req, tenant); job != nil {
					return job, false, nil
				}
			}
			s.met.Executions.Add(1)
			if err == nil {
				val, err = s.execute(x, entry, p)
			}
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
	if val.Job != nil {
		writeJSON(w, http.StatusAccepted, map[string]any{
			"job":         val.Job,
			"predictedMs": float64(val.Predicted) / float64(time.Millisecond),
		})
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
	writeJSON(w, http.StatusOK, answer(&req, val, fromCache, shared))
}

// execute runs one cacheable enumeration on x's prepare-and-run path,
// over the prologue p that x.prepare resolved. The context is detached
// from the requesting client: the result is cacheable, so completing it
// is useful even if the first asker is gone; Config.QueryTimeout is its
// bound and Server.Close its shutdown path. Requests that share this
// execution through singleflight see only their own "singleflight" span.
func (s *Server) execute(x *run, entry *GraphEntry, p *kplex.Prepared) (*queryResult, error) {
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.QueryTimeout)
	defer cancel()
	req := x.req
	span := x.enumerate(p.SeedSpace()).Attr("mode", req.Mode)
	val := &queryResult{Mode: req.Mode, Digest: entry.Digest, ComputedAt: time.Now()}
	var res kplex.Result
	var err error
	switch req.Mode {
	case "count":
		res, err = kplex.RunPrepared(ctx, p, x.opts)
	case "topk":
		val.TopK, res, err = kplex.EnumerateTopKPrepared(ctx, p, x.opts, req.TopN)
	case "histogram":
		val.Histogram, res, err = kplex.SizeHistogramPrepared(ctx, p, x.opts)
	}
	if err == nil {
		span.Attr("count", fmt.Sprint(res.Count))
	}
	x.end(res, err)
	if err != nil {
		return nil, err
	}
	val.Count = res.Count
	val.MaxSize = int(res.Stats.MaxPlexSize)
	val.Elapsed = res.Elapsed
	val.Stats = res.Stats
	return val, nil
}

// routeAsync converts a route=auto query into a background job when the
// calibrated prediction for its prologue p exceeds the async threshold,
// and returns the job as the flight's value. A nil return (prediction
// under threshold, submit failure) leaves the query on the synchronous
// path, which reuses p.
func (s *Server) routeAsync(p *kplex.Prepared, req *queryRequest, tenant string) *queryResult {
	pred := s.router.predict(p.CostFeatures())
	if pred <= s.cfg.RouteAsyncThreshold {
		return nil
	}
	spec := jobs.Spec{Graph: req.Graph, K: req.K, Q: req.Q, Threads: req.Threads, Tenant: tenant}
	if req.Mode == "topk" {
		spec.TopN = req.TopN
	}
	if req.Scheduler != "auto" {
		spec.Scheduler = req.Scheduler
	}
	man, err := s.jobs.Submit(spec)
	if err != nil {
		return nil
	}
	s.met.RoutedAsync.Add(1)
	return &queryResult{Job: man, Predicted: pred}
}

// answer renders a query result as the /query response body. Empty topk
// and histogram payloads are omitted (omitempty), whether nil or not.
func answer(req *queryRequest, val *queryResult, cached, shared bool) *queryResponse {
	return &queryResponse{
		Graph:     req.Graph,
		Digest:    val.Digest,
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
	}
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
	s.met.TenantQueries.Add(tenant, 1)
	t := obs.FromContext(r.Context())
	started := time.Now()
	inf := s.inflight.Register("stream", req.Graph, req.K, req.Q, req.Mode, t.ID())
	defer func() {
		inf.Done()
		s.met.StreamDuration.ObserveSince(started)
		s.recordSlow(slowRecord{Kind: "stream", Graph: req.Graph, K: req.K, Q: req.Q, Mode: req.Mode, TraceID: t.ID()}, started)
	}()
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	x := s.newRun(t, inf, req)
	release := x.admitOrFail(ctx, w, tenant)
	if release == nil {
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
	p, err := x.prepare(entry, opts)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	span := x.enumerate(p.SeedSpace()).Attr("mode", "stream")
	h, err := kplex.RunStreamPrepared(ctx, p, x.opts)
	if err != nil {
		x.end(kplex.Result{}, err)
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
	for plex := range h.C() {
		if err := enc.Encode(plex); err != nil {
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
	}
	// A client that disconnected mid-stream cancelled the work; that is a
	// "cancelled" span, not a "failed" one — only a genuine engine error
	// marks the stream failed.
	span.Attr("plexes", fmt.Sprint(lines))
	if runErr != nil && r.Context().Err() != nil {
		span.EndStatus("cancelled")
	}
	x.end(res, runErr)
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
