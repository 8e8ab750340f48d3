package server

import (
	"encoding/hex"
	"strconv"

	"repro/internal/graph"
	"repro/internal/kplex"
)

// preparedKey is the prepared cache's identity of a kplex.Prepared
// handle: the graph's content digest plus exactly the options that shape
// the reduction. The run prologue — CTCP, (q-k)-core, degeneracy
// relabelling — is O(n+m) and identical for every query in one cell, so
// keeping the handle resident means a repeat query (or a resumed job)
// starts enumerating immediately. Execution knobs (threads, scheduler,
// timeouts, hooks) deliberately do not appear — they share a handle.
// Handles are immutable: a cached handle may serve any number of
// concurrent runs, and eviction only forgets the cache's reference (runs
// still holding the handle keep it alive through the GC).
func preparedKey(digest string, opts *kplex.Options) string {
	key := digest + "|k=" + strconv.Itoa(opts.K) + "|q=" + strconv.Itoa(opts.Q)
	if opts.UseCTCP {
		key += "|ctcp"
	}
	return key
}

// prepared returns the handle for (g, digest, opts), preparing and caching
// it on first use. Concurrent first queries for one cell may prepare
// twice; both results are identical and the loser's handle is simply
// dropped — cheaper than a singleflight for an O(n+m) pure computation.
//
// When a catalog is configured, an LRU miss tries the persisted prologue
// for this cell before computing: a restarted (or eviction-churned) kplexd
// deserializes the handle in milliseconds instead of re-running the O(n+m)
// prologue. Freshly computed handles are persisted back, so every cell is
// paid for at most once per graph content across the server's lifetime.
func (s *Server) prepared(g graph.CSR, digest string, opts *kplex.Options) (*kplex.Prepared, error) {
	key := preparedKey(digest, opts)
	if p, ok := s.prep.get(key); ok {
		s.met.PreparedHits.Add(1)
		return p, nil
	}
	if p := s.loadPrologue(digest, opts); p != nil {
		s.met.PreparedWarmLoads.Add(1)
		s.prep.put(key, p)
		return p, nil
	}
	s.met.PreparedMisses.Add(1)
	p, err := kplex.Prepare(g, *opts)
	if err != nil {
		return nil, err
	}
	s.prep.put(key, p)
	s.savePrologue(digest, opts, p)
	return p, nil
}

// loadPrologue fetches and validates a persisted prologue for the cell;
// nil when there is no catalog, no stored cell, or the stored bytes fail
// any check. Validation is strict — CRC, version, and the embedded source
// digest and options must all match the request — because a wrong prologue
// would not fail loudly, it would silently enumerate a different
// decomposition.
func (s *Server) loadPrologue(digest string, opts *kplex.Options) *kplex.Prepared {
	if s.catalog == nil {
		return nil
	}
	raw, err := s.catalog.LoadPrologue(digest, opts.K, opts.Q, opts.UseCTCP)
	if err != nil || raw == nil {
		return nil
	}
	p, src, err := kplex.UnmarshalPrepared(raw)
	if err != nil {
		s.cfg.Logf(`{"level":"warn","msg":"discarding corrupt persisted prologue","digest":%q,"err":%q}`, digest, err.Error())
		s.catalog.RemovePrologue(digest, opts.K, opts.Q, opts.UseCTCP) //nolint:errcheck
		return nil
	}
	if hex.EncodeToString(src[:]) != digest || p.K() != opts.K || p.Q() != opts.Q || p.UseCTCP() != opts.UseCTCP {
		s.cfg.Logf(`{"level":"warn","msg":"persisted prologue does not match its cell, discarding","digest":%q}`, digest)
		s.catalog.RemovePrologue(digest, opts.K, opts.Q, opts.UseCTCP) //nolint:errcheck
		return nil
	}
	return p
}

// savePrologue persists a freshly computed handle; failures are logged,
// not fatal — the prologue cache is an optimization, never correctness.
func (s *Server) savePrologue(digest string, opts *kplex.Options, p *kplex.Prepared) {
	if s.catalog == nil {
		return
	}
	src, err := hex.DecodeString(digest)
	if err != nil || len(src) != 32 {
		return // non-sha256 digest (shouldn't happen); nothing to key by
	}
	var d [32]byte
	copy(d[:], src)
	if err := s.catalog.SavePrologue(digest, opts.K, opts.Q, opts.UseCTCP, kplex.MarshalPrepared(p, d)); err != nil {
		s.cfg.Logf(`{"level":"warn","msg":"persisting prologue failed","digest":%q,"err":%q}`, digest, err.Error())
		return
	}
	s.met.PreparedPersists.Add(1)
}
