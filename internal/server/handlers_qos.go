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
	"repro/internal/obs"
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
		if snap := s.hist.admissionWait.Snapshot(); snap.Count > 0 {
			retry = time.Duration(snap.Sum / float64(snap.Count) * float64(time.Second))
		}
	}
	retry = min(max(retry, time.Second), 60*time.Second)
	w.Header().Set("Retry-After", strconv.FormatInt(int64(math.Ceil(retry.Seconds())), 10))
	s.fail(w, http.StatusTooManyRequests, err.Error())
}

// executeDeadline answers a deadlineMs-bounded query: the enumeration is
// tied to the requesting client and to the deadline, and a deadline expiry
// is not an error but a run that stopped early. Its SeedCollector's
// committed seed groups answer as an HTTP 200 with partial:true, the count
// a true lower bound, the completed-seed fraction, and (when the job
// subsystem is enabled) their aggregate and done-set become a durable
// resume job already enumerating the remainder. A run that beats its
// deadline caches and answers exactly like the synchronous path. Partial
// results never enter the result cache or the singleflight group.
func (s *Server) executeDeadline(w http.ResponseWriter, r *http.Request, t *obs.Trace, inf *obs.InflightEntry, entry *GraphEntry, req *queryRequest, opts kplex.Options, tenant, key string) {
	inf.SetStage("admission")
	admSpan := t.StartSpan("admission")
	release, err := s.admit(r.Context(), tenant)
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
	s.met.Executions.Add(1)

	inf.SetStage("prepare")
	prepSpan := t.StartSpan("prepare").Attr("graph", req.Graph)
	p, err := s.prepared(entry.G, entry.Digest, &opts)
	prepSpan.EndErr(err)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	inf.SetSeedsTotal(int64(p.SeedSpace()))
	topN := 0
	if req.Mode == "topk" {
		topN = req.TopN
	}
	col := kplex.NewSeedCollector(p.SeedSpace(), []kplex.CollectMember{{TopN: topN}},
		func(int, int64, []*kplex.Aggregate, *kplex.SeedSet) { inf.SeedDone() })
	opts.PhaseTimers = true
	col.Install(&opts, 0)

	deadline := time.Duration(req.DeadlineMS) * time.Millisecond
	if deadline > s.cfg.QueryTimeout {
		deadline = s.cfg.QueryTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	inf.SetStage("enumerate")
	enumSpan := t.StartSpan("enumerate").Attr("mode", req.Mode).Attr("deadlineMs", strconv.Itoa(req.DeadlineMS))
	started := time.Now()
	res, runErr := kplex.RunPrepared(ctx, p, opts)
	elapsed := time.Since(started)
	aggs, doneSeeds := col.Snapshot()
	agg := aggs[0]

	if runErr == nil {
		// Beat the deadline: the committed aggregate is the complete answer.
		enumSpan.Attr("count", strconv.FormatInt(agg.Count, 10)).End()
		val := resultFromAggregate(req, agg, entry.Digest, elapsed)
		val.Stats = res.Stats
		s.cache.put(key, val)
		s.observeCost(p.CostFeatures(), res.Elapsed)
		s.respond(w, req, entry, val, false, false)
		return
	}
	if r.Context().Err() != nil {
		enumSpan.EndStatus("cancelled")
		s.fail(w, http.StatusBadRequest, "client went away: "+runErr.Error())
		return
	}
	if !errors.Is(runErr, context.DeadlineExceeded) {
		enumSpan.EndErr(runErr)
		s.fail(w, http.StatusInternalServerError, runErr.Error())
		return
	}
	enumSpan.Attr("count", strconv.FormatInt(agg.Count, 10)).
		Attr("seedsDone", strconv.Itoa(doneSeeds.Len())).EndStatus("deadline")

	s.met.PartialAnswers.Add(1)
	resp := partialResponse(req, entry, agg, doneSeeds.Len(), p.SeedSpace(), elapsed)
	if s.jobs != nil {
		spec := jobs.Spec{Graph: req.Graph, K: req.K, Q: req.Q, Threads: req.Threads, Tenant: tenant}
		if req.Mode == "topk" {
			spec.TopN = req.TopN
		}
		if req.Scheduler != "auto" {
			spec.Scheduler = req.Scheduler
		}
		man, err := s.jobs.SubmitResumable(spec, entry.Digest, p.SeedSpace(), doneSeeds.Seeds(), agg,
			float64(elapsed)/float64(time.Millisecond))
		if err != nil {
			s.cfg.Logf(`{"level":"warn","msg":"partial answer resume submission failed","err":%q}`, err.Error())
		} else {
			resp.ResumeJob = man
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// resultFromAggregate renders a completed commit-disciplined run as a
// cacheable queryResult (mode-specific payloads only, like execute).
func resultFromAggregate(req *queryRequest, agg *kplex.Aggregate, digest string, elapsed time.Duration) *queryResult {
	val := &queryResult{
		Mode:       req.Mode,
		Count:      agg.Count,
		MaxSize:    agg.MaxSize,
		Elapsed:    elapsed,
		Digest:     digest,
		ComputedAt: time.Now(),
	}
	switch req.Mode {
	case "topk":
		val.TopK = agg.TopK
		if val.TopK == nil {
			val.TopK = [][]int{}
		}
	case "histogram":
		val.Histogram = agg.Histogram
		if val.Histogram == nil {
			val.Histogram = map[int]int64{}
		}
	}
	return val
}

// partialResponse renders the 200 partial:true body of a deadline-hit
// query.
func partialResponse(req *queryRequest, entry *GraphEntry, agg *kplex.Aggregate, seedsDone, totalSeeds int, elapsed time.Duration) *queryResponse {
	resp := &queryResponse{
		Graph:      req.Graph,
		Digest:     entry.Digest,
		K:          req.K,
		Q:          req.Q,
		Mode:       req.Mode,
		Count:      agg.Count,
		MaxSize:    agg.MaxSize,
		ElapsedMS:  float64(elapsed) / float64(time.Millisecond),
		Stats:      agg.Stats,
		Partial:    true,
		SeedsDone:  seedsDone,
		TotalSeeds: totalSeeds,
	}
	if totalSeeds > 0 {
		resp.SeedFraction = float64(seedsDone) / float64(totalSeeds)
	}
	switch req.Mode {
	case "topk":
		resp.TopK = agg.TopK
		if resp.TopK == nil {
			resp.TopK = [][]int{}
		}
	case "histogram":
		resp.Histogram = agg.Histogram
		if resp.Histogram == nil {
			resp.Histogram = map[int]int64{}
		}
	}
	return resp
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
func (s *Server) executeSampled(t *obs.Trace, inf *obs.InflightEntry, entry *GraphEntry, req *queryRequest, opts kplex.Options) (*queryResult, error) {
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.QueryTimeout)
	defer cancel()
	inf.SetStage("prepare")
	prepSpan := t.StartSpan("prepare").Attr("graph", req.Graph)
	p, err := s.prepared(entry.G, entry.Digest, &opts)
	prepSpan.EndErr(err)
	if err != nil {
		return nil, err
	}
	total := p.SeedSpace()
	rate := kplex.EffectiveSampleRate(total, req.Sample, 0)
	skip, kept, err := kplex.SampleSeeds(total, rate, sampleSalt(entry.Digest, req.K, req.Q, req.Sample))
	if err != nil {
		return nil, err
	}
	inf.SetSeedsTotal(int64(kept))

	perSeed := make([]int64, total)
	col := kplex.NewSeedCollector(total, []kplex.CollectMember{{}},
		func(seed int, plexes int64, _ []*kplex.Aggregate, _ *kplex.SeedSet) {
			perSeed[seed] = plexes
			inf.SeedDone()
		})
	opts.SkipSeeds = skip
	opts.PhaseTimers = true
	col.Install(&opts, 0)

	inf.SetStage("enumerate")
	enumSpan := t.StartSpan("enumerate").Attr("mode", req.Mode).
		Attr("sampleRate", strconv.FormatFloat(rate, 'g', -1, 64)).
		Attr("sampledSeeds", strconv.Itoa(kept))
	res, err := kplex.RunPrepared(ctx, p, opts)
	if err != nil {
		enumSpan.EndErr(err)
		return nil, err
	}
	enumSpan.Attr("rawCount", strconv.FormatInt(res.Count, 10)).End()
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
		aggs, _ := col.Snapshot()
		hist := aggs[0].Histogram
		val.Histogram = make(map[int]int64, len(hist))
		scale := 1.0
		if len(counts) > 0 {
			scale = float64(total) / float64(len(counts))
		}
		for size, c := range hist {
			val.Histogram[size] = int64(math.Round(float64(c) * scale))
		}
	}
	s.observeCost(p.CostFeatures(), res.Elapsed)
	return val, nil
}

// isOverload reports whether an admission error is a capacity or quota
// rejection (a 429), as opposed to the caller giving up.
func isOverload(err error) bool {
	var qe *qos.QuotaError
	return errors.Is(err, errBusy) || errors.As(err, &qe)
}
