package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/kplex"
)

// FuzzParseRequest decodes the fuzz bytes as a /query body and as a
// /batch body, the way the handlers decode them, and runs each through
// the handlers' own validation — no HTTP server. Whatever is accepted must
// be a valid run held to the host's ceilings, parallel exactly when it
// splits stragglers, and cached under a key that no execution knob moves.
// The committed corpus (testdata/fuzz/FuzzParseRequest) seeds every mode,
// the auto scheduler and route, a deadline, a sample and a batch.
func FuzzParseRequest(f *testing.F) {
	s := &Server{cfg: Config{}.withDefaults()}
	f.Fuzz(func(t *testing.T, data []byte) {
		var q queryRequest
		if json.NewDecoder(bytes.NewReader(data)).Decode(&q) == nil {
			if opts, err := s.parseOptions(&q); err == nil {
				checkParsed(t, s, &q, &opts)
			}
		}
		var b batchRequest
		if json.NewDecoder(bytes.NewReader(data)).Decode(&b) == nil {
			if reqs, opts, err := s.parseBatch(&b); err == nil {
				for i := range reqs {
					checkParsed(t, s, &reqs[i], &opts[i])
				}
			}
		}
	})
}

// checkParsed asserts the invariants of one accepted request.
func checkParsed(t *testing.T, s *Server, req *queryRequest, opts *kplex.Options) {
	t.Helper()
	if err := opts.Validate(); err != nil {
		t.Fatalf("accepted %+v with invalid options: %v", req, err)
	}
	if opts.Threads < 1 || opts.Threads > s.cfg.MaxThreads || opts.K > s.cfg.MaxK {
		t.Fatalf("accepted %+v as threads=%d k=%d, outside threads [1, %d] or k <= %d",
			req, opts.Threads, opts.K, s.cfg.MaxThreads, s.cfg.MaxK)
	}
	if req.Scheduler != "auto" && (opts.TaskTimeout == kplex.DefaultTaskTimeout) != (opts.Threads > 1) {
		t.Fatalf("accepted %+v with threads=%d and TaskTimeout=%v: τ_time must be the default exactly when the run is parallel",
			req, opts.Threads, opts.TaskTimeout)
	}
	// The same request with the other execution knobs must parse to the
	// same cache identity.
	alt := *req
	alt.Threads, alt.Scheduler = 1, ""
	altOpts, err := s.parseOptions(&alt)
	if err != nil {
		t.Fatalf("%+v accepted but %+v refused: %v", req, alt, err)
	}
	if got, want := cacheKey("d", &altOpts, &alt), cacheKey("d", opts, req); got != want {
		t.Fatalf("cache key %q moves to %q with threads=1 and the default scheduler", want, got)
	}
}
