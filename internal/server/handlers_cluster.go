package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/kplex"
	"repro/internal/obs"
)

// The /cluster endpoints. Every kplexd is a potential worker:
//
//	POST   /cluster/run       execute one leased seed range, streaming
//	                          NDJSON heartbeats and a final aggregate
//
// A kplexd started with -coordinator additionally serves the
// coordinator surface (503 otherwise): the job handler set of
// handlers_jobs.go under /cluster/jobs, bound to the coordinator's job
// manager, plus the worker registry:
//
//	POST   /cluster/workers          register a worker base URL
//	GET    /cluster/workers          list workers

func (s *Server) clusterRoutes() {
	const disabled = "cluster coordinator disabled: start kplexd with -coordinator"
	s.mux.HandleFunc("POST /cluster/run", s.handleClusterRun)
	if s.cluster == nil {
		s.jobRoutes("/cluster/jobs", nil, disabled)
		s.mux.HandleFunc("/cluster/workers", func(w http.ResponseWriter, _ *http.Request) {
			s.fail(w, http.StatusServiceUnavailable, disabled)
		})
		return
	}
	s.mux.HandleFunc("POST /cluster/workers", s.handleAddWorker)
	s.mux.HandleFunc("GET /cluster/workers", s.handleListWorkers)
	s.jobRoutes("/cluster/jobs", s.cluster.Manager, disabled)
}

// handleClusterRun is the worker side of a lease: verify the digest
// handshake, resolve the prologue from the local prepared cache, and
// enumerate exactly the requested range, streaming heartbeat lines (which
// feed the coordinator's lease watchdog) and a final sealed aggregate.
func (s *Server) handleClusterRun(w http.ResponseWriter, r *http.Request) {
	var req cluster.RangeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	opts, err := s.options(req.K, req.Q, req.Threads, req.TopN, req.Scheduler)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}

	e, err := s.reg.Acquire(req.Graph)
	if err != nil {
		s.fail(w, http.StatusNotFound, err.Error())
		return
	}
	defer s.reg.Release(e)
	// The digest-verification handshake: refusing here turns a stale or
	// divergent graph file on this node into a rejected lease the
	// coordinator reassigns, instead of a silently wrong merged result.
	if req.Digest != "" && e.Digest != req.Digest {
		s.fail(w, http.StatusConflict, fmt.Sprintf("graph %q digest mismatch: coordinator expects %s, this worker has %s", req.Graph, req.Digest, e.Digest))
		return
	}

	// A propagated Traceparent header means this lease is part of a
	// coordinator's stitched trace. The worker records its share on a
	// detached trace and ships the spans back on the Done line, rather
	// than into its own ring — there the duplicated id would shadow the
	// worker's local traces, and the coordinator is the one stitching.
	traceID, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	var wt *obs.Trace
	if traceID != "" {
		wt = obs.NewTrace(fmt.Sprintf("range [%d, %d)", req.Lo, req.Hi))
	}
	rangeAttr := fmt.Sprintf("[%d, %d)", req.Lo, req.Hi)
	inf := s.inflight.Register("range", req.Graph, req.K, req.Q, "", traceID)
	defer inf.Done()

	// Ranges are queued work, like jobs: block for a slot rather than 429.
	// The stream has not started yet, so the coordinator's watchdog covers
	// a worker stuck here (no heartbeats until admission). Admission comes
	// before the prologue, so a queued range computes none.
	inf.SetStage("admission")
	admSpan := wt.StartSpan("admission").Attr("range", rangeAttr)
	release, err := s.admitJob(r.Context(), tenantOf(r))
	admSpan.EndErr(err)
	if err != nil {
		return // client gone while waiting; nothing to answer
	}
	defer release()

	x := s.newRun(wt, inf, nil)
	p, err := x.prepare(e, opts, "range", rangeAttr)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	if p.SeedSpace() != req.TotalSeeds {
		s.fail(w, http.StatusConflict, fmt.Sprintf("seed space mismatch: coordinator partitioned %d seeds, this worker's prologue has %d", req.TotalSeeds, p.SeedSpace()))
		return
	}
	if req.Lo < 0 || req.Hi > req.TotalSeeds || req.Lo >= req.Hi {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("range [%d, %d) outside the %d-seed space", req.Lo, req.Hi, req.TotalSeeds))
		return
	}
	s.met.RangeRuns.Add(1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher := ndjsonFlusher(w)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	emit := func(line *cluster.RangeLine) bool {
		if enc.Encode(line) != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	var seedsDone atomic.Int64
	start := time.Now()
	span := x.enumerate(req.Hi-req.Lo).Attr("range", rangeAttr)
	type rangeOut struct {
		agg *kplex.Aggregate
		res kplex.Result
		err error
	}
	outc := make(chan rangeOut, 1)
	go func() {
		agg, res, err := cluster.RunRange(r.Context(), p, x.opts, &req, func(n int) { seedsDone.Store(int64(n)) })
		outc <- rangeOut{agg, res, err}
	}()

	// Heartbeat cadence well under any sane lease timeout: each line
	// resets the coordinator's watchdog, so a live worker never expires
	// mid-range while a killed one breaks the stream immediately.
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	emit(&cluster.RangeLine{SeedsDone: 0})
	for {
		select {
		case out := <-outc:
			if out.err != nil {
				// The stream is underway; the error travels in-band.
				x.end(out.res, out.err)
				s.met.Errors.Add(1)
				emit(&cluster.RangeLine{SeedsDone: int(seedsDone.Load()), Error: out.err.Error()})
				return
			}
			span.Attr("seeds", fmt.Sprint(req.Hi-req.Lo))
			x.end(out.res, nil)
			emit(&cluster.RangeLine{
				SeedsDone: int(seedsDone.Load()),
				Done:      true,
				Agg:       out.agg,
				ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
				Spans:     wt.Spans(),
			})
			return
		case <-tick.C:
			if !emit(&cluster.RangeLine{SeedsDone: int(seedsDone.Load())}) {
				// Client gone: r.Context() cancellation stops the engine;
				// drain the goroutine before returning.
				span.EndStatus("cancelled")
				<-outc
				return
			}
		case <-r.Context().Done():
			span.EndStatus("cancelled")
			<-outc
			return
		}
	}
}

func (s *Server) handleAddWorker(w http.ResponseWriter, r *http.Request) {
	var body struct {
		URL string `json:"url"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&body); err != nil {
		s.fail(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	v, err := s.cluster.AddWorker(body.URL)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleListWorkers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.cluster.Workers())
}
