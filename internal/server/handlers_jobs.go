package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/jobs"
)

// The job endpoints: the durable async counterpart of /query. A
// submitted job survives restarts — its progress is checkpointed and an
// interrupted job resumes when the server comes back. One handler set
// serves both job managers: /jobs (Config.JobsDir, jobs run on this node
// with seed-level checkpoints) and, on a coordinator, /cluster/jobs
// (Config.ClusterDir, jobs leased to workers as seed ranges).
//
//	POST   {base}              submit  {"graph","k","q",...}  -> 202 + manifest
//	GET    {base}              list all jobs
//	GET    {base}/{id}         manifest + live progress
//	GET    {base}/{id}/events  NDJSON progress feed until terminal
//	GET    {base}/{id}/result  completed job's result (409 while active)
//	POST   {base}/{id}/cancel  cancel an active job (409 if terminal)
//	DELETE {base}/{id}         cancel an active job / delete a terminal one

// jobRoutes registers the job handler set under base, bound to m; a nil m
// answers every route 503 with disabled.
func (s *Server) jobRoutes(base string, m *jobs.Manager, disabled string) {
	if m == nil {
		off := func(w http.ResponseWriter, _ *http.Request) {
			s.fail(w, http.StatusServiceUnavailable, disabled)
		}
		s.mux.HandleFunc(base, off)
		s.mux.HandleFunc(base+"/", off)
		return
	}
	api := &jobAPI{s: s, m: m}
	s.mux.HandleFunc("POST "+base, api.submit)
	s.mux.HandleFunc("GET "+base, api.list)
	s.mux.HandleFunc("GET "+base+"/{id}", api.get)
	s.mux.HandleFunc("GET "+base+"/{id}/events", api.events)
	s.mux.HandleFunc("GET "+base+"/{id}/result", api.result)
	s.mux.HandleFunc("POST "+base+"/{id}/cancel", api.cancel)
	s.mux.HandleFunc("DELETE "+base+"/{id}", api.remove)
}

// jobAPI is the job handler set bound to one manager.
type jobAPI struct {
	s *Server
	m *jobs.Manager
}

func (a *jobAPI) submit(w http.ResponseWriter, r *http.Request) {
	s := a.s
	var spec jobs.Spec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
		s.fail(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	// The tenant governs the job's place in the weighted-fair queue and its
	// admission identity; body value and header are both accepted, sanitized
	// the same way as interactive requests.
	if spec.Tenant != "" {
		spec.Tenant = sanitizeTenant(spec.Tenant)
	} else {
		spec.Tenant = tenantOf(r)
	}
	// The service-level ceilings that protect the interactive path protect
	// the background path too, item by item for a batch job.
	for i, it := range spec.ResolvedItems() {
		if err := s.checkCeilings(it.K, spec.Threads, it.TopN); err != nil {
			if len(spec.Items) > 0 {
				err = fmt.Errorf("item %d: %w", i, err)
			}
			s.fail(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	// Resolve the graph eagerly so an unknown name is a 404 at submit time
	// instead of a failed job minutes later.
	if _, _, release, err := s.jobGraph(spec.Graph); err != nil {
		s.fail(w, http.StatusNotFound, err.Error())
		return
	} else {
		release()
	}
	man, err := a.m.Submit(spec)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, man)
}

func (a *jobAPI) list(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, a.m.List())
}

func (a *jobAPI) get(w http.ResponseWriter, r *http.Request) {
	v, err := a.m.Get(r.PathValue("id"))
	if err != nil {
		a.s.failJob(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (a *jobAPI) result(w http.ResponseWriter, r *http.Request) {
	res, err := a.m.Result(r.PathValue("id"))
	if err != nil {
		a.s.failJob(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// cancel stops an active job and nothing else — unlike DELETE it can
// never destroy a terminal job's persisted result, so clients can use it
// without first checking the state.
func (a *jobAPI) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := a.m.Cancel(id); err != nil {
		a.s.failJob(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"cancelled": id})
}

func (a *jobAPI) remove(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// One verb, two phases: an active job is cancelled; a terminal job is
	// removed along with its directory. Two DELETEs purge an active job.
	if err := a.m.Cancel(id); err == nil {
		writeJSON(w, http.StatusOK, map[string]string{"cancelled": id})
		return
	} else if !errors.Is(err, jobs.ErrNotActive) {
		a.s.failJob(w, err)
		return
	}
	if err := a.m.Delete(id); err != nil {
		a.s.failJob(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// events streams NDJSON progress updates until the job reaches a
// terminal state or the client disconnects.
func (a *jobAPI) events(w http.ResponseWriter, r *http.Request) {
	ch, stop, err := a.m.Subscribe(r.PathValue("id"))
	if err != nil {
		a.s.failJob(w, err)
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
			// Keepalive so idle feeds survive proxies; an empty object is
			// ignored by clients decoding Progress lines.
			fmt.Fprintln(w, "{}")
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

// failJob maps the job manager's sentinel errors onto HTTP statuses.
func (s *Server) failJob(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		s.fail(w, http.StatusNotFound, err.Error())
	case errors.Is(err, jobs.ErrNotDone), errors.Is(err, jobs.ErrActive), errors.Is(err, jobs.ErrNotActive):
		s.fail(w, http.StatusConflict, err.Error())
	default:
		s.fail(w, http.StatusInternalServerError, err.Error())
	}
}
