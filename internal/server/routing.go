package server

// Cost-based query routing. The engine's cost model (kplex.CostModel)
// predicts a query's runtime from the prologue summary the prepared-graph
// cache already holds, and kplexd uses the prediction for the three
// placement decisions a service has to make per query:
//
//   - sync vs async: a query submitted with route=auto whose predicted
//     runtime exceeds Config.RouteAsyncThreshold is converted into a
//     durable background job (202 + manifest) instead of holding an
//     interactive slot for minutes;
//   - parallelism: scheduler=auto runs predicted-cheap queries
//     sequentially (worker startup and queue traffic dominate sub-50ms
//     enumerations) and predicted-expensive ones on the default thread
//     budget;
//   - τ_time: long queries split straggler tasks on a tighter budget,
//     which tolerates the skewed subtree depths that long enumerations
//     imply.
//
// The model ships with coefficients fitted offline (kplex.DefaultCostModel),
// so its absolute scale is wrong on any other machine. costRouter corrects
// that online: every observed (features, runtime) pair of a complete
// enumeration — interactive queries, streams and completed jobs alike —
// feeds an EWMA of the log-residual, and predictions are scaled by
// exp(bias). A constant hardware speed ratio is exactly a constant
// log-offset, so the EWMA converges to it regardless of which queries
// happen to arrive.

import (
	"math"
	"sync"
	"time"

	"repro/internal/kplex"
)

// Auto-tuning thresholds on the calibrated prediction.
const (
	// routeSequentialBelow: under this, thread startup and queue traffic
	// cost more than they save; run sequentially.
	routeSequentialBelow = 50 * time.Millisecond
	// routeSplitFastAbove: over this, subtree-depth skew dominates; split
	// straggler tasks at a shorter τ_time.
	routeSplitFastAbove = 2 * time.Second
)

// costRouter is the calibrated predictor. Safe for concurrent use.
type costRouter struct {
	model kplex.CostModel
	alpha float64 // EWMA weight of one observation

	mu   sync.Mutex
	bias float64 // EWMA of log(observed) - log(predicted)
	obs  int64
}

func newCostRouter() *costRouter {
	return &costRouter{model: kplex.DefaultCostModel, alpha: 0.2}
}

// predict returns the model's estimate scaled by the learned bias, clamped
// to the model's own [1µs, 24h] routing range.
func (cr *costRouter) predict(f kplex.CostFeatures) time.Duration {
	raw := cr.model.Predict(f)
	cr.mu.Lock()
	bias := cr.bias
	cr.mu.Unlock()
	sec := raw.Seconds() * math.Exp(bias)
	switch {
	case sec < 1e-6:
		sec = 1e-6
	case sec > 86400:
		sec = 86400
	}
	return time.Duration(sec * float64(time.Second))
}

// observe folds one measured runtime into the calibrator. The first
// observation seeds the bias outright (a cold EWMA anchored at zero would
// take 1/alpha observations to cross a large hardware gap).
func (cr *costRouter) observe(f kplex.CostFeatures, elapsed time.Duration) {
	if elapsed <= 0 {
		elapsed = time.Microsecond
	}
	resid := math.Log(elapsed.Seconds()) - math.Log(cr.model.Predict(f).Seconds())
	cr.mu.Lock()
	if cr.obs == 0 {
		cr.bias = resid
	} else {
		cr.bias += cr.alpha * (resid - cr.bias)
	}
	cr.obs++
	cr.mu.Unlock()
}

// observeCost feeds one complete run's measured cost into the calibrator.
// It is the single funnel for every execution path: the prepare-and-run
// path's complete runs (run.end) and, wired as jobs.Config.ObserveCost,
// background jobs. The prediction error is histogrammed before the
// observation is folded in, so the metric reflects the model as it
// actually served — each sample scored against the calibration state that
// produced its routing decision.
func (s *Server) observeCost(f kplex.CostFeatures, elapsed time.Duration) {
	if elapsed <= 0 {
		elapsed = time.Microsecond
	}
	pred := s.router.predict(f)
	s.met.CostLogError.Observe(math.Abs(math.Log(pred.Seconds()) - math.Log(elapsed.Seconds())))
	s.router.observe(f, elapsed)
	s.met.CostObservations.Add(1)
}

// tuneFor finalizes the execution knobs of a scheduler=auto query from the
// calibrated prediction. An explicitly requested thread count (threads > 0
// in the request) is honoured; τ_time is always chosen here. The choices
// are execution-only — they never change the result set, the cache key or
// the golden digests.
func tuneFor(pred time.Duration, explicitThreads, defaultThreads int, opts *kplex.Options) {
	if explicitThreads <= 0 {
		opts.Threads = defaultThreads
		if pred < routeSequentialBelow {
			opts.Threads = 1
		}
	}
	switch {
	case opts.Threads <= 1:
		opts.TaskTimeout = 0 // no siblings to starve
	case pred >= routeSplitFastAbove:
		opts.TaskTimeout = time.Millisecond // long runs: split aggressively
	default:
		opts.TaskTimeout = kplex.DefaultTaskTimeout
	}
}
