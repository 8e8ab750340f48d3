package server

// Multi-tenant QoS surfaces of the query path: tenant identification, 429
// responses with a computed Retry-After, deadline-bounded partial answers
// with a durable resume token, and deterministic seed-sampling estimates.

import (
	"context"
	"errors"
	"hash/fnv"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/jobs"
	"repro/internal/kplex"
	"repro/internal/qos"
)

// tenantHeader names the request's tenant for admission control and the
// per-tenant metrics.
const tenantHeader = "X-Kplexd-Tenant"

// tenantOf resolves the request's tenant: the sanitized header value, or
// "default" when absent.
func tenantOf(r *http.Request) string {
	return sanitizeTenant(r.Header.Get(tenantHeader))
}

// sanitizeTenant clamps a client-supplied tenant name to a label-safe
// charset — the name flows verbatim into Prometheus label values, and one
// creative client must not be able to corrupt a scrape or mint unbounded
// series. Empty input means the default tenant.
func sanitizeTenant(name string) string {
	name = strings.TrimSpace(name)
	if name == "" {
		return "default"
	}
	if len(name) > 64 {
		name = name[:64]
	}
	var b strings.Builder
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// reject429 answers a denied admission with 429 and a Retry-After the
// client can act on: a quota denial carries the token bucket's own refill
// time; a capacity rejection is paced by the controller's predicted queue
// drain, falling back to the admission-wait histogram's mean when the
// controller has no hold history yet. Clamped to [1s, 60s].
func (s *Server) reject429(w http.ResponseWriter, err error) {
	retry := s.qos.PredictWait()
	var qe *qos.QuotaError
	if errors.As(err, &qe) {
		retry = qe.RetryAfter
	}
	if retry == 0 {
		if snap := s.met.AdmissionWait.Snapshot(); snap.Count > 0 {
			retry = time.Duration(snap.Sum / float64(snap.Count) * float64(time.Second))
		}
	}
	retry = min(max(retry, time.Second), 60*time.Second)
	w.Header().Set("Retry-After", strconv.FormatInt(int64(math.Ceil(retry.Seconds())), 10))
	s.fail(w, http.StatusTooManyRequests, err.Error())
}

// executeDeadline answers a deadlineMs-bounded query on x's
// prepare-and-run path: the enumeration is tied to the requesting client
// and to the deadline, and a deadline expiry is not an error but a run
// that stopped early. Its SeedCollector's committed seed groups answer as
// an HTTP 200 with partial:true, the count a true lower bound, the
// completed-seed fraction, and (when the job subsystem is enabled) their
// aggregate and done-set become a durable resume job already enumerating
// the remainder. A run that beats its deadline caches and answers exactly
// like the synchronous path. Partial results never enter the result cache
// or the singleflight group.
func (s *Server) executeDeadline(w http.ResponseWriter, r *http.Request, x *run, entry *GraphEntry, opts kplex.Options, tenant, key string) {
	release := x.admitOrFail(r.Context(), w, tenant)
	if release == nil {
		return
	}
	defer release()
	s.met.Executions.Add(1)

	p, err := x.prepare(entry, opts)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	req := x.req
	deadline := min(time.Duration(req.DeadlineMS)*time.Millisecond, s.cfg.QueryTimeout)
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	span := x.enumerate(p.SeedSpace()).Attr("mode", req.Mode).Attr("deadlineMs", strconv.Itoa(req.DeadlineMS))
	topN := 0
	if req.Mode == "topk" {
		topN = req.TopN
	}
	col := kplex.NewSeedCollector(p.SeedSpace(), []kplex.CollectMember{{TopN: topN}}, nil)
	col.Install(&x.opts, 0)
	started := time.Now()
	res, runErr := kplex.RunPrepared(ctx, p, x.opts)
	elapsed := time.Since(started)
	aggs, doneSeeds := col.Snapshot()
	val := resultFromAggregate(req, aggs[0], entry.Digest, elapsed)

	switch {
	case runErr == nil:
		// Beat the deadline: the committed aggregate is the complete answer.
		span.Attr("count", strconv.FormatInt(val.Count, 10))
		x.end(res, nil)
		val.Stats = res.Stats
		s.cache.put(key, val)
		writeJSON(w, http.StatusOK, answer(req, val, false, false))
		return
	case r.Context().Err() != nil:
		span.EndStatus("cancelled")
		s.fail(w, http.StatusBadRequest, "client went away: "+runErr.Error())
		return
	case !errors.Is(runErr, context.DeadlineExceeded):
		x.end(res, runErr)
		s.fail(w, http.StatusInternalServerError, runErr.Error())
		return
	}
	span.Attr("count", strconv.FormatInt(val.Count, 10)).
		Attr("seedsDone", strconv.Itoa(doneSeeds.Len())).EndStatus("deadline")

	s.met.PartialAnswers.Add(1)
	resp := answer(req, val, false, false)
	resp.Partial = true
	resp.SeedsDone, resp.TotalSeeds = doneSeeds.Len(), p.SeedSpace()
	if resp.TotalSeeds > 0 {
		resp.SeedFraction = float64(resp.SeedsDone) / float64(resp.TotalSeeds)
	}
	if s.jobs != nil {
		spec := jobs.Spec{Graph: req.Graph, K: req.K, Q: req.Q, Threads: req.Threads, Tenant: tenant}
		if req.Mode == "topk" {
			spec.TopN = req.TopN
		}
		if req.Scheduler != "auto" {
			spec.Scheduler = req.Scheduler
		}
		man, err := s.jobs.SubmitResumable(spec, entry.Digest, p.SeedSpace(), doneSeeds.Seeds(), aggs[0],
			float64(elapsed)/float64(time.Millisecond))
		if err != nil {
			s.cfg.Logf(`{"level":"warn","msg":"partial answer resume submission failed","err":%q}`, err.Error())
		} else {
			resp.ResumeJob = man
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// resultFromAggregate renders a commit-disciplined run's aggregate as a
// queryResult: the mode's own payload only, and the committed seed
// groups' Stats.
func resultFromAggregate(req *queryRequest, agg *kplex.Aggregate, digest string, elapsed time.Duration) *queryResult {
	val := &queryResult{
		Mode:       req.Mode,
		Count:      agg.Count,
		MaxSize:    agg.MaxSize,
		Elapsed:    elapsed,
		Stats:      agg.Stats,
		Digest:     digest,
		ComputedAt: time.Now(),
	}
	switch req.Mode {
	case "topk":
		val.TopK = agg.TopK
	case "histogram":
		val.Histogram = agg.Histogram
	}
	return val
}

// sampleSalt derives the deterministic sampling salt of a query cell, so
// identical sampled queries (and their cache entries) select the identical
// seed subset across restarts.
func sampleSalt(digest string, k, q int, rate float64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(digest))
	h.Write([]byte{byte(k), byte(q)})
	h.Write([]byte(strconv.FormatFloat(rate, 'g', -1, 64)))
	return h.Sum64()
}

// executeSampled runs a sample:<rate> query — a deterministic uniform
// subset of seed groups — and forms the unbiased count estimate with its
// normal-approximation 95% CI. The requested rate is floored so at least
// kplex.DefaultMinSampleSeeds seed groups are enumerated (tiny seed spaces
// degrade to a census: exact, zero-width CI). Runs detached like execute:
// the estimate is cached under the sample-suffixed key.
func (s *Server) executeSampled(x *run, entry *GraphEntry, opts kplex.Options) (*queryResult, error) {
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.QueryTimeout)
	defer cancel()
	p, err := x.prepare(entry, opts)
	if err != nil {
		return nil, err
	}
	req := x.req
	total := p.SeedSpace()
	rate := kplex.EffectiveSampleRate(total, req.Sample, 0)
	skip, kept, err := kplex.SampleSeeds(total, rate, sampleSalt(entry.Digest, req.K, req.Q, req.Sample))
	if err != nil {
		return nil, err
	}
	x.opts.SkipSeeds = skip
	span := x.enumerate(kept).Attr("mode", req.Mode).
		Attr("sampleRate", strconv.FormatFloat(rate, 'g', -1, 64)).
		Attr("sampledSeeds", strconv.Itoa(kept))
	// Each enumerated seed's plex count is its OnSeedDone partial's
	// Emitted; the engine fires the hook once per seed, after the seed's
	// last plex.
	perSeed := make([]int64, total)
	progress := x.opts.OnSeedDone
	x.opts.OnSeedDone = func(seed int, partial kplex.Stats) {
		perSeed[seed] = partial.Emitted
		progress(seed, partial)
	}
	var (
		res  kplex.Result
		hist map[int]int64
	)
	if req.Mode == "histogram" {
		hist, res, err = kplex.SizeHistogramPrepared(ctx, p, x.opts)
	} else {
		res, err = kplex.RunPrepared(ctx, p, x.opts)
	}
	if err == nil {
		span.Attr("rawCount", strconv.FormatInt(res.Count, 10))
	}
	x.end(res, err)
	if err != nil {
		return nil, err
	}
	s.met.SampledQueries.Add(1)

	// Every enumerated seed's count, zeros included: the estimator averages
	// over the n sampled seeds, not just the productive ones.
	counts := make([]int64, 0, kept)
	for seed := 0; seed < total; seed++ {
		if !skip.Contains(seed) {
			counts = append(counts, perSeed[seed])
		}
	}
	est := kplex.EstimateCount(total, counts, rate)
	val := &queryResult{
		Mode:       req.Mode,
		Count:      int64(math.Round(est.Count)),
		MaxSize:    int(res.Stats.MaxPlexSize),
		Elapsed:    res.Elapsed,
		Stats:      res.Stats,
		Digest:     entry.Digest,
		ComputedAt: time.Now(),
		Sample:     &est,
	}
	if req.Mode == "histogram" {
		// Per-bucket counts scale by the same unbiased N/n factor.
		val.Histogram = make(map[int]int64, len(hist))
		scale := 1.0
		if len(counts) > 0 {
			scale = float64(total) / float64(len(counts))
		}
		for size, c := range hist {
			val.Histogram[size] = int64(math.Round(float64(c) * scale))
		}
	}
	return val, nil
}

// isOverload reports whether an admission error is a capacity or quota
// rejection (a 429), as opposed to the caller giving up.
func isOverload(err error) bool {
	var qe *qos.QuotaError
	return errors.Is(err, errBusy) || errors.As(err, &qe)
}
