package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/kplex"
	"repro/internal/obs"
)

// Config tunes a Coordinator's range executor and worker registry. The
// job lifecycle settings (directory, graph loader, prepare hook, top-k
// bounds, logger, tracer) are the jobs.Config passed beside it to Open.
type Config struct {
	// Workers is the initial set of worker base URLs; more can join at
	// runtime through AddWorker.
	Workers []string
	// Client issues the range requests. Nil uses a client without an
	// overall timeout (range streams are long-lived; the lease watchdog is
	// the liveness mechanism).
	Client *http.Client
	// LeaseTimeout fails a lease whose worker reports no progress for this
	// long (default 15s). Progress lines reset the clock, so a slow range
	// on a healthy worker is not a timeout.
	LeaseTimeout time.Duration
	// StealAfter is how long a range must have been on lease before an
	// idle worker may speculatively re-lease it (default 2×LeaseTimeout).
	StealAfter time.Duration
	// RangesPerWorker sizes the default partition: ranges = this ×
	// registered workers at first run (default 4 — enough surplus ranges
	// that reassignment and stealing have something to move).
	RangesPerWorker int
	// MaxRangeAttempts fails the job once a single range has lost this
	// many leases (default 8): a range that dies on every worker is a
	// poison pill, not bad luck.
	MaxRangeAttempts int
	// ObserveLease, when non-nil, receives the round-trip duration of
	// every successfully completed range lease — the feed for the host's
	// lease latency histogram.
	ObserveLease func(d time.Duration)
}

func (cfg Config) withDefaults() Config {
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 15 * time.Second
	}
	if cfg.StealAfter <= 0 {
		cfg.StealAfter = 2 * cfg.LeaseTimeout
	}
	if cfg.RangesPerWorker <= 0 {
		cfg.RangesPerWorker = 4
	}
	if cfg.MaxRangeAttempts <= 0 {
		cfg.MaxRangeAttempts = 8
	}
	return cfg
}

// Counters is the coordinator's metrics block: the job lifecycle
// counters of its manager plus the range executor's own.
type Counters struct {
	*jobs.Counters
	RangesDone, Reassigned, Expired, Stolen, DoubleReports *obs.Counter
}

// newCounters declares the range executor's counters on r. The lifecycle
// counters come from the manager, whose registry Open mounts under jobs_.
func newCounters(r *obs.Registry) Counters {
	return Counters{
		RangesDone:    r.Counter("ranges_done", "Seed ranges completed across all distributed jobs."),
		Reassigned:    r.Counter("leases_reassigned", "Range leases lost to worker failure or expiry."),
		Expired:       r.Counter("leases_expired", "Range leases expired by the progress watchdog."),
		Stolen:        r.Counter("leases_stolen", "Speculative straggler re-leases issued."),
		DoubleReports: r.Counter("double_reports", "Range completions ignored because the range was already done."),
	}
}

// Coordinator is a job manager over the coordinator's state directory
// whose jobs run on the range executor, plus the registry of workers the
// executor leases to. It runs distributed jobs one at a time (a
// cluster-wide job already saturates every worker; a second one would
// only make the two thrash each other's leases).
type Coordinator struct {
	*jobs.Manager
	cfg Config

	mu      sync.Mutex
	workers []*workerState
	active  *dispatcher // the running job's dispatcher, for AddWorker wakeups

	metrics  *obs.Registry
	counters Counters
}

// Open creates (or reopens) a coordinator: a jobs.Manager opened over
// jc.Dir with one worker and the range executor, recovering jobs a
// previous process left queued or interrupted.
func Open(jc jobs.Config, cfg Config) (*Coordinator, error) {
	c := &Coordinator{cfg: cfg.withDefaults(), metrics: obs.NewRegistry()}
	c.counters = newCounters(c.metrics)
	for _, u := range c.cfg.Workers {
		if _, err := c.AddWorker(u); err != nil {
			return nil, err
		}
	}
	jc.Workers = 1
	jc.Executor = rangeExecutor{c}
	m, err := jobs.Open(jc)
	if err != nil {
		return nil, err
	}
	c.Manager = m
	c.counters.Counters = m.Counters()
	c.metrics.Mount("jobs_", m.Metrics())
	return c, nil
}

// Metrics is the registry the coordinator's counters are declared on,
// its manager's mounted under jobs_, for the host to mount in turn.
func (c *Coordinator) Metrics() *obs.Registry { return c.metrics }

// AddWorker registers a worker base URL (idempotent). The active job
// starts leasing to it at the next scheduling round.
func (c *Coordinator) AddWorker(raw string) (*WorkerView, error) {
	u, err := url.Parse(raw)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("cluster: worker URL must be http(s)://host[:port], got %q", raw)
	}
	norm := strings.TrimRight(raw, "/")
	c.mu.Lock()
	var w *workerState
	for _, have := range c.workers {
		if have.url == norm {
			w = have
			break
		}
	}
	if w == nil {
		w = &workerState{url: norm, addedAt: time.Now()}
		c.workers = append(c.workers, w)
	}
	v := c.workerViewLocked(w)
	active := c.active
	c.mu.Unlock()
	if active != nil {
		active.wake()
	}
	return &v, nil
}

func (c *Coordinator) workerViewLocked(w *workerState) WorkerView {
	return WorkerView{
		URL: w.url, Busy: w.busy, Fails: w.fails,
		RangesDone: w.rangesDone, AddedAt: w.addedAt, LastOK: w.lastOK,
	}
}

// Workers lists the registered workers.
func (c *Coordinator) Workers() []WorkerView {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerView, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, c.workerViewLocked(w))
	}
	return out
}

// reserveWorker claims an idle, non-backed-off worker (least recently
// successful first, a cheap spread). Nil when none is available.
func (c *Coordinator) reserveWorker() *workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	var best *workerState
	for _, w := range c.workers {
		if w.busy || now.Before(w.nextTry) {
			continue
		}
		if best == nil || w.lastOK.Before(best.lastOK) {
			best = w
		}
	}
	if best != nil {
		best.busy = true
	}
	return best
}

// freeWorker returns a reserved worker. ok records a completed range;
// blame backs the worker off after a failure that was its fault (losing a
// speculation race or a coordinator shutdown is not).
func (c *Coordinator) freeWorker(w *workerState, ok, blame bool) {
	c.mu.Lock()
	w.busy = false
	switch {
	case ok:
		w.fails = 0
		w.rangesDone++
		w.lastOK = time.Now()
	case blame:
		w.fails++
		w.nextTry = time.Now().Add(workerBackoff(w.fails))
	}
	c.mu.Unlock()
}

// setActive records the running job's dispatcher (nil when idle).
func (c *Coordinator) setActive(d *dispatcher) {
	c.mu.Lock()
	c.active = d
	c.mu.Unlock()
}

// maxSpecRanges bounds a submission's partition fan-out.
const maxSpecRanges = 4096

// rangeExecutor runs a distributed job: pin the partition, replay the
// completed ranges, lease the rest across the workers, merge.
type rangeExecutor struct{ c *Coordinator }

// Describe words the range executor's jobs.
func (rangeExecutor) Describe() jobs.Wording {
	return jobs.Wording{Kind: "Distributed", SubmitTo: " to the coordinator", ResumeFrom: "the range WAL"}
}

// Validate admits single queries only: batch items fan out across ranges
// poorly (every member would ride every range) and can always be
// submitted as one distributed job per cell.
func (rangeExecutor) Validate(spec *jobs.Spec) error {
	if len(spec.Items) > 0 {
		return errors.New("cluster: distributed jobs take a single query; submit one job per batch item")
	}
	if spec.Ranges < 0 || spec.Ranges > maxSpecRanges {
		return fmt.Errorf("cluster: ranges must be in [0, %d], got %d", maxSpecRanges, spec.Ranges)
	}
	if spec.Threads < 0 || spec.Threads > 256 {
		return fmt.Errorf("cluster: threads must be in [0, 256], got %d", spec.Threads)
	}
	return nil
}

// Recover has nothing to restore at Open: completed ranges are replayed
// from the range log when the job runs.
func (rangeExecutor) Recover(string, *jobs.Manifest, func(string, ...any)) (any, error) {
	return nil, nil
}

// Run executes one incarnation of a distributed job.
func (x rangeExecutor) Run(ctx context.Context, r *jobs.Run) ([]*kplex.Aggregate, float64, error) {
	c := x.c
	// Pin the partition on first run; later incarnations (and every worker,
	// via the request's digest/totalSeeds) must reproduce the manager's
	// pinned decomposition exactly or the per-range checkpoints describe a
	// different job.
	n := r.Spec.Ranges
	if n <= 0 {
		n = c.cfg.RangesPerWorker * max(1, len(c.Workers()))
	}
	var ranges []jobs.Range
	if err := r.Update(func(man *jobs.Manifest) {
		if len(man.Ranges) == 0 {
			man.Ranges = partition(r.TotalSeeds, n)
		}
		ranges = man.Ranges
	}); err != nil {
		return nil, 0, fmt.Errorf("cluster: pinning the partition: %w", err)
	}

	walPath := filepath.Join(r.Dir, rangeWALName)
	rep, err := replayRangeWAL(walPath, len(ranges))
	if err != nil {
		return nil, 0, err
	}
	w, err := jobs.OpenLog(walPath, rep.LastSeq)
	if err != nil {
		return nil, 0, err
	}
	defer w.Close()

	spec := r.Spec
	d := newDispatcher(c, r, r.ID, RangeRequest{
		Graph: spec.Graph, Digest: r.Digest, TotalSeeds: r.TotalSeeds,
		K: spec.K, Q: spec.Q, TopN: spec.TopN,
		Threads: spec.Threads, Scheduler: spec.Scheduler,
	}, ranges, rep, w)
	d.trace = r.Trace
	c.setActive(d)
	err = d.run(ctx)
	c.setActive(nil)
	if err != nil {
		return nil, 0, err
	}

	// Merge in range order. Ranges partition the seed space, and aggregate
	// merging is exact over disjoint plex sets, so this reproduces the
	// single-node answer bit for bit.
	mergeSpan := r.Trace.StartSpan("merge").Attr("ranges", fmt.Sprint(len(ranges)))
	merged := kplex.NewAggregate(spec.TopN)
	for i := range ranges {
		merged.Merge(d.aggs[i])
	}
	mergeSpan.End()
	return []*kplex.Aggregate{merged}, d.enumMS(), nil
}
