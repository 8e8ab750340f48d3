package server

// The prepare-and-run path. Every request that enumerates — /query in each
// of its modes, /stream, /batch and a leased /cluster/run range — sets up
// its engine call here, so it looks the same in /debug/queries, in its
// trace and to the cost calibrator whichever endpoint asked. A handler
// keeps only what is its own: the singleflight and result cache, a
// collector and resume job, the sample estimator, its NDJSON loop.
//
// Every surface runs its stages in one order — admit, prepare, enumerate —
// so work queued for a slot computes no prologue. A /jobs job keeps the
// same order in jobs.Manager.runIncarnation, which takes its slot through
// Server.admitJob; a /cluster/jobs job's ranges take theirs on the workers,
// in handleClusterRun.

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/kplex"
	"repro/internal/obs"
)

// run is one request's engine call. Its stages are methods: admit takes
// the enumeration slot, prepare resolves the prologue, enumerate
// finalizes the options and opens the enumerate span, and end closes it.
type run struct {
	s     *Server
	t     *obs.Trace         // nil-safe
	inf   *obs.InflightEntry // nil-safe
	req   *queryRequest      // the execution knobs; nil for a leased range: no scheduler:auto
	p     *kplex.Prepared
	opts  kplex.Options
	span  *obs.Span // the enumerate span, once open
	exact bool      // every seed group runs: the runtime calibrates the cost model
}

func (s *Server) newRun(t *obs.Trace, inf *obs.InflightEntry, req *queryRequest) *run {
	return &run{s: s, t: t, inf: inf, req: req}
}

// admit enters the admission stage and takes an enumeration slot for
// tenant (see Server.admit) under an "admission" span.
func (r *run) admit(ctx context.Context, tenant string) (func(), error) {
	r.inf.SetStage("admission")
	span := r.t.StartSpan("admission")
	release, err := r.s.admit(ctx, tenant)
	span.EndErr(err)
	return release, err
}

// admitOrFail is admit for a request that answers its own client (a
// stream, a deadline query, a batch): a denial is answered here — 429
// with Retry-After on overload or quota, 400 when the client left while
// queued — and the returned release is nil.
func (r *run) admitOrFail(ctx context.Context, w http.ResponseWriter, tenant string) func() {
	release, err := r.admit(ctx, tenant)
	switch {
	case err == nil:
	case isOverload(err):
		r.s.reject429(w, err)
	default:
		r.s.fail(w, http.StatusBadRequest, "client went away: "+err.Error())
	}
	return release
}

// prepare enters the prepare stage and resolves the prologue of opts'
// cell on entry's graph through the prepared cache, under a "prepare"
// span carrying the graph name and attrs (key/value pairs). A batch calls
// it once per traversal group.
func (r *run) prepare(entry *GraphEntry, opts kplex.Options, attrs ...string) (*kplex.Prepared, error) {
	r.inf.SetStage("prepare")
	span := r.t.StartSpan("prepare").Attr("graph", entry.Name)
	for i := 0; i+1 < len(attrs); i += 2 {
		span.Attr(attrs[i], attrs[i+1])
	}
	p, err := r.s.prepared(entry.G, entry.Digest, &opts)
	span.EndErr(err)
	r.p, r.opts = p, opts
	return p, err
}

// enumerate finalizes the run's options for the seeds seed groups it will
// walk out of the prologue's seed space: /debug/queries gets the seed total
// and the predicted cost, scheduler:auto is tuned from that prediction, and
// the engine carries its phase timers and a per-seed progress hook.
// Collectors installed on r.opts afterwards chain the hook. The prediction
// is the full enumeration's scaled by the share of seed groups that run —
// a sample query's effective rate, a range's width.
func (r *run) enumerate(seeds int) *obs.Span {
	pred := r.predict(seeds)
	r.exact = seeds == r.p.SeedSpace()
	r.inf.SetSeedsTotal(int64(seeds))
	r.inf.SetPredicted(pred)
	r.tune(pred, &r.opts)
	timePhases(&r.opts)
	r.opts.OnSeedDone = func(int, kplex.Stats) { r.inf.SeedDone() }
	return r.open()
}

// predict is the calibrated cost of walking seeds of the prepared
// handle's seed groups: the full enumeration's prediction scaled by the
// share that runs.
func (r *run) predict(seeds int) time.Duration {
	pred := r.s.router.predict(r.p.CostFeatures())
	if total := r.p.SeedSpace(); total > 0 {
		pred = time.Duration(float64(pred) * float64(seeds) / float64(total))
	}
	return pred
}

// tune finalizes the execution knobs of a scheduler:"auto" request in
// opts from the predicted cost; any other request keeps the knobs it
// parsed. A query tunes its one run, a batch each traversal group.
func (r *run) tune(pred time.Duration, opts *kplex.Options) {
	if r.req != nil && r.req.Scheduler == "auto" {
		tuneFor(pred, r.req.Threads, r.s.cfg.DefaultThreads, opts)
		r.s.met.AutoTuned.Add(1)
	}
}

// open enters the enumerate stage and opens the enumerate span. A batch
// calls it directly: its groups resolve their prologues as the walk
// reaches them.
func (r *run) open() *obs.Span {
	r.inf.SetStage("enumerate")
	r.span = r.t.StartSpan("enumerate")
	return r.span
}

// end closes the enumerate span with the run's phase split (a span a
// caller already ended with its own status keeps it). A run that
// completed every seed group feeds its runtime to the cost calibrator; a
// sample or range of the seed groups, or a run cut by its deadline, does
// not, since the model predicts whole enumerations.
func (r *run) end(res kplex.Result, err error) {
	r.span.Attr("seedBuildMs", fmt.Sprintf("%.3f", float64(res.Stats.SeedBuildNS)/1e6)).
		Attr("branchMs", fmt.Sprintf("%.3f", float64(res.Stats.BranchNS)/1e6)).
		EndErr(err)
	if err == nil && r.exact {
		r.s.observeCost(r.p.CostFeatures(), res.Elapsed)
	}
}

// timePhases turns on the engine's phase timers. Every service execution
// carries them: they are execution-only (never in the cache key), and
// their cost — a clock read per task and two per seed build — is noise
// against the HTTP round-trip the request already paid. The engine's direct API keeps its
// zero-overhead default. A batch sets them on its items' options, which
// its groups' walks inherit.
func timePhases(opts *kplex.Options) { opts.PhaseTimers = true }
