package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/kplex"
	"repro/internal/obs"
)

// The /cluster endpoints. Every kplexd is a potential worker:
//
//	POST   /cluster/run       execute one leased seed range, streaming
//	                          NDJSON heartbeats and a final aggregate
//
// A kplexd started with -coordinator additionally serves the
// coordinator surface (503 otherwise):
//
//	POST   /cluster/workers          register a worker base URL
//	GET    /cluster/workers          list workers
//	POST   /cluster/jobs             submit a distributed job -> 202 + manifest
//	GET    /cluster/jobs             list distributed jobs
//	GET    /cluster/jobs/{id}        manifest + live progress
//	GET    /cluster/jobs/{id}/events NDJSON progress feed until terminal
//	GET    /cluster/jobs/{id}/result merged result (409 while active)
//	POST   /cluster/jobs/{id}/cancel cancel an active job
//	DELETE /cluster/jobs/{id}        cancel active / delete terminal

func (s *Server) clusterRoutes() {
	s.mux.HandleFunc("POST /cluster/run", s.handleClusterRun)
	if s.cluster == nil {
		disabled := func(w http.ResponseWriter, _ *http.Request) {
			s.fail(w, http.StatusServiceUnavailable, "cluster coordinator disabled: start kplexd with -coordinator")
		}
		s.mux.HandleFunc("/cluster/jobs", disabled)
		s.mux.HandleFunc("/cluster/jobs/", disabled)
		s.mux.HandleFunc("/cluster/workers", disabled)
		return
	}
	s.mux.HandleFunc("POST /cluster/workers", s.handleAddWorker)
	s.mux.HandleFunc("GET /cluster/workers", s.handleListWorkers)
	s.mux.HandleFunc("POST /cluster/jobs", s.handleSubmitClusterJob)
	s.mux.HandleFunc("GET /cluster/jobs", s.handleListClusterJobs)
	s.mux.HandleFunc("GET /cluster/jobs/{id}", s.handleGetClusterJob)
	s.mux.HandleFunc("GET /cluster/jobs/{id}/events", s.handleClusterJobEvents)
	s.mux.HandleFunc("GET /cluster/jobs/{id}/result", s.handleClusterJobResult)
	s.mux.HandleFunc("POST /cluster/jobs/{id}/cancel", s.handleCancelClusterJob)
	s.mux.HandleFunc("DELETE /cluster/jobs/{id}", s.handleDeleteClusterJob)
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
	if req.K < 1 || req.K > s.cfg.MaxK {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("k must be in [1, %d], got %d", s.cfg.MaxK, req.K))
		return
	}
	if req.Threads < 0 || req.Threads > s.cfg.MaxThreads {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("threads must be in [0, %d], got %d", s.cfg.MaxThreads, req.Threads))
		return
	}
	if req.TopN < 0 || req.TopN > s.cfg.MaxTopN {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("topn must be in [0, %d], got %d", s.cfg.MaxTopN, req.TopN))
		return
	}
	opts, err := cluster.BuildOptions(&req, s.cfg.DefaultThreads)
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

	inf.SetStage("prepare")
	prepSpan := wt.StartSpan("prepare").Attr("graph", req.Graph).Attr("range", rangeAttr)
	p, err := s.prepared(e.G, e.Digest, &opts)
	prepSpan.EndErr(err)
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

	// Ranges are queued work, like jobs: block for a slot rather than 429.
	// The stream has not started yet, so the coordinator's watchdog covers
	// a worker stuck here (no heartbeats until admission).
	inf.SetStage("admission")
	admSpan := wt.StartSpan("admission").Attr("range", rangeAttr)
	release, err := s.admitJob(r.Context(), tenantOf(r))
	admSpan.EndErr(err)
	if err != nil {
		return // client gone while waiting; nothing to answer
	}
	defer release()
	s.met.RangeRuns.Add(1)
	inf.SetStage("enumerate")
	inf.SetSeedsTotal(int64(req.Hi - req.Lo))

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
	enumSpan := wt.StartSpan("enumerate").Attr("range", rangeAttr)
	type rangeOut struct {
		agg *kplex.Aggregate
		err error
	}
	outc := make(chan rangeOut, 1)
	go func() {
		agg, _, err := cluster.RunRange(r.Context(), p, opts, &req, func(n int) {
			seedsDone.Store(int64(n))
			inf.SeedDone()
		})
		outc <- rangeOut{agg, err}
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
				enumSpan.EndErr(out.err)
				s.met.Errors.Add(1)
				emit(&cluster.RangeLine{SeedsDone: int(seedsDone.Load()), Error: out.err.Error()})
				return
			}
			enumSpan.Attr("seeds", fmt.Sprint(req.Hi-req.Lo)).End()
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
				enumSpan.EndStatus("cancelled")
				<-outc
				return
			}
		case <-r.Context().Done():
			enumSpan.EndStatus("cancelled")
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

func (s *Server) handleSubmitClusterJob(w http.ResponseWriter, r *http.Request) {
	var spec cluster.Spec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
		s.fail(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	// The interactive ceilings apply to the distributed path too; each
	// worker re-validates, but failing at submit beats failing leases.
	if spec.K < 1 || spec.K > s.cfg.MaxK {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("k must be in [1, %d], got %d", s.cfg.MaxK, spec.K))
		return
	}
	if spec.Threads < 0 || spec.Threads > s.cfg.MaxThreads {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("threads must be in [0, %d], got %d", s.cfg.MaxThreads, spec.Threads))
		return
	}
	if spec.TopN < 0 || spec.TopN > s.cfg.MaxTopN {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("topn must be in [0, %d], got %d", s.cfg.MaxTopN, spec.TopN))
		return
	}
	// Resolve the graph eagerly: unknown names 404 at submit time.
	if _, _, release, err := s.jobGraph(spec.Graph); err != nil {
		s.fail(w, http.StatusNotFound, err.Error())
		return
	} else {
		release()
	}
	man, err := s.cluster.Submit(spec)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, man)
}

func (s *Server) handleListClusterJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.cluster.List())
}

func (s *Server) handleGetClusterJob(w http.ResponseWriter, r *http.Request) {
	v, err := s.cluster.Get(r.PathValue("id"))
	if err != nil {
		s.failJob(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleClusterJobResult(w http.ResponseWriter, r *http.Request) {
	res, err := s.cluster.Result(r.PathValue("id"))
	if err != nil {
		s.failJob(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCancelClusterJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.cluster.Cancel(id); err != nil {
		s.failJob(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"cancelled": id})
}

func (s *Server) handleDeleteClusterJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Same two-phase verb as DELETE /jobs/{id}.
	if err := s.cluster.Cancel(id); err == nil {
		writeJSON(w, http.StatusOK, map[string]string{"cancelled": id})
		return
	} else if !errors.Is(err, jobs.ErrNotActive) {
		s.failJob(w, err)
		return
	}
	if err := s.cluster.Delete(id); err != nil {
		s.failJob(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// handleClusterJobEvents streams NDJSON progress until terminal, same
// contract as /jobs/{id}/events.
func (s *Server) handleClusterJobEvents(w http.ResponseWriter, r *http.Request) {
	ch, stop, err := s.cluster.Subscribe(r.PathValue("id"))
	if err != nil {
		s.failJob(w, err)
		return
	}
	defer stop()

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher := ndjsonFlusher(w)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case p, ok := <-ch:
			if !ok {
				return
			}
			if err := enc.Encode(p); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-time.After(15 * time.Second):
			fmt.Fprintln(w, "{}")
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}
