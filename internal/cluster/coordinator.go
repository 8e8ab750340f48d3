package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/kplex"
	"repro/internal/obs"
)

// Config wires a Coordinator to its host.
type Config struct {
	// Dir is the coordinator state directory: one subdirectory per
	// distributed job (manifest.json, ranges.ndjson, result.json).
	Dir string
	// Load resolves a graph name, pinning it for the duration of a job
	// (the coordinator itself only needs the graph to compute the seed
	// decomposition it partitions).
	Load GraphLoader
	// Prepare resolves the run prologue, typically through the host's
	// prepared-graph cache. Nil falls back to a direct kplex.Prepare.
	Prepare func(g graph.CSR, digest string, opts kplex.Options) (*kplex.Prepared, error)
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
	// DefaultTopN / MaxTopN mirror the jobs layer's result-size bounds
	// (defaults 10 / 1000).
	DefaultTopN int
	MaxTopN     int
	// Logf receives operational notices (default log.Printf).
	Logf func(format string, args ...any)
	// Tracer, when non-nil, records one stitched trace per distributed
	// job: coordinator-side prepare/lease/merge spans plus the worker-side
	// spans shipped back on each range's Done line.
	Tracer *obs.Tracer
	// ObserveLease, when non-nil, receives the round-trip duration of
	// every successfully completed range lease — the feed for the host's
	// lease latency histogram.
	ObserveLease func(d time.Duration)
}

func (cfg Config) withDefaults() Config {
	if cfg.Prepare == nil {
		cfg.Prepare = func(g graph.CSR, _ string, opts kplex.Options) (*kplex.Prepared, error) {
			return kplex.Prepare(g, opts)
		}
	}
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
	if cfg.DefaultTopN <= 0 {
		cfg.DefaultTopN = 10
	}
	if cfg.MaxTopN <= 0 {
		cfg.MaxTopN = 1000
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	return cfg
}

// Counters is the coordinator's monotonic metrics block, merged into the
// host's /stats like the job manager's.
type Counters struct {
	Submitted     atomic.Int64
	Completed     atomic.Int64
	Failed        atomic.Int64
	Cancelled     atomic.Int64
	Resumed       atomic.Int64
	Queued        atomic.Int64 // gauge
	Running       atomic.Int64 // gauge
	RangesDone    atomic.Int64
	Reassigned    atomic.Int64 // leases lost to failure or expiry
	Expired       atomic.Int64 // the subset of Reassigned that hit the watchdog
	Stolen        atomic.Int64 // speculative straggler re-leases
	DoubleReports atomic.Int64 // duplicate range completions ignored idempotently
}

// Snapshot renders the counters for a metrics endpoint.
func (c *Counters) Snapshot() map[string]int64 {
	return map[string]int64{
		"cluster_jobs_submitted":    c.Submitted.Load(),
		"cluster_jobs_completed":    c.Completed.Load(),
		"cluster_jobs_failed":       c.Failed.Load(),
		"cluster_jobs_cancelled":    c.Cancelled.Load(),
		"cluster_jobs_resumed":      c.Resumed.Load(),
		"cluster_jobs_queued":       c.Queued.Load(),
		"cluster_jobs_running":      c.Running.Load(),
		"cluster_ranges_done":       c.RangesDone.Load(),
		"cluster_leases_reassigned": c.Reassigned.Load(),
		"cluster_leases_expired":    c.Expired.Load(),
		"cluster_leases_stolen":     c.Stolen.Load(),
		"cluster_double_reports":    c.DoubleReports.Load(),
	}
}

var (
	errClusterShutdown  = errors.New("cluster: coordinator shutting down")
	errClusterCancelled = errors.New("cluster: cancelled by request")
)

// djob is one distributed job's in-memory state.
type djob struct {
	dir string

	mu       sync.Mutex
	man      Manifest
	progress Progress
	cancel   context.CancelCauseFunc // non-nil while running
	subs     map[int]chan Progress
	nextSub  int
}

// Coordinator runs distributed jobs one at a time (a cluster-wide job
// already saturates every worker; queueing a second would only make the
// two thrash each other's leases).
type Coordinator struct {
	cfg    Config
	client *http.Client

	ctx  context.Context
	stop context.CancelCauseFunc
	wg   sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*djob
	queue   []*djob // FIFO
	workers []*workerState
	active  *dispatcher // the running job's dispatcher, for AddWorker wakeups
	closed  bool

	counters Counters
}

// Open creates (or reopens) a coordinator over cfg.Dir, recovering jobs a
// previous process left queued or interrupted, and starts the runner.
func Open(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("cluster: Config.Dir is required")
	}
	if cfg.Load == nil {
		return nil, errors.New("cluster: Config.Load is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:    cfg,
		client: cfg.Client,
		jobs:   make(map[string]*djob),
	}
	c.cond = sync.NewCond(&c.mu)
	c.ctx, c.stop = context.WithCancelCause(context.Background())
	for _, u := range cfg.Workers {
		if _, err := c.AddWorker(u); err != nil {
			return nil, err
		}
	}
	if err := c.recover(); err != nil {
		return nil, err
	}
	c.wg.Add(1)
	go c.runLoop()
	return c, nil
}

// recover scans the state dir and re-queues every non-terminal job. Range
// checkpoints are replayed lazily when the job actually runs; recovery
// only needs the manifests. Single-threaded: the runner is not started
// yet.
func (c *Coordinator) recover() error {
	entries, err := os.ReadDir(c.cfg.Dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		dir := filepath.Join(c.cfg.Dir, ent.Name())
		man, err := readManifest(dir)
		if err != nil {
			c.cfg.Logf("cluster: skipping %s: %v", dir, err)
			continue
		}
		j := &djob{dir: dir, man: *man, subs: make(map[int]chan Progress)}
		switch {
		case man.State.Terminal():
			j.progress = Progress{
				State: man.State, RangesDone: man.RangesDone,
				RangesTotal: len(man.Ranges), TotalSeeds: man.TotalSeeds,
				ElapsedMS: man.EnumMS, Error: man.Error,
			}
		case man.State == jobs.StateRunning, man.State == jobs.StateCheckpointed:
			// Interrupted mid-run: completed ranges are in the WAL; requeue
			// and let the next run skip them.
			j.man.State = jobs.StateQueued
			j.man.Error = ""
			j.man.Resumes++
			if err := jobs.WriteManifest(j.dir, &j.man); err != nil {
				c.cfg.Logf("cluster: %s: persisting requeue: %v", j.man.ID, err)
			}
			j.progress = Progress{State: jobs.StateQueued, RangesDone: man.RangesDone, RangesTotal: len(man.Ranges), TotalSeeds: man.TotalSeeds}
			c.counters.Resumed.Add(1)
			c.enqueueLocked(j)
		case man.State == jobs.StateQueued:
			j.progress = Progress{State: jobs.StateQueued}
			c.enqueueLocked(j)
		default:
			c.cfg.Logf("cluster: %s: unknown state %q, leaving untouched", man.ID, man.State)
		}
		c.jobs[man.ID] = j
	}
	return nil
}

// enqueueLocked appends j to the FIFO; callers hold c.mu or run before
// the runner starts.
func (c *Coordinator) enqueueLocked(j *djob) {
	c.queue = append(c.queue, j)
	c.counters.Queued.Add(1)
	c.cond.Signal()
}

// Close stops the runner. A running job is interrupted at the next lease
// boundary and parked checkpointed, so the next Open resumes it from its
// completed ranges.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.stop(errClusterShutdown)
	c.cond.Broadcast()
	c.wg.Wait()
}

// Counters exposes the coordinator's metrics block.
func (c *Coordinator) Counters() *Counters { return &c.counters }

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

// maxSpecRanges bounds a submission's partition fan-out.
const maxSpecRanges = 4096

func newClusterJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failing means the host is unusable
	}
	return "d" + hex.EncodeToString(b[:])
}

// Submit validates spec, persists a queued distributed job, and wakes the
// runner.
func (c *Coordinator) Submit(spec Spec) (*Manifest, error) {
	if spec.Graph == "" {
		return nil, errors.New("cluster: graph is required")
	}
	if spec.K < 1 {
		return nil, fmt.Errorf("cluster: k must be >= 1, got %d", spec.K)
	}
	if spec.Q < 2*spec.K-1 {
		return nil, fmt.Errorf("cluster: q must be >= 2k-1 = %d, got %d", 2*spec.K-1, spec.Q)
	}
	if spec.TopN == 0 {
		spec.TopN = c.cfg.DefaultTopN
	}
	if spec.TopN < 1 || spec.TopN > c.cfg.MaxTopN {
		return nil, fmt.Errorf("cluster: topn must be in [1, %d], got %d", c.cfg.MaxTopN, spec.TopN)
	}
	if spec.Ranges < 0 || spec.Ranges > maxSpecRanges {
		return nil, fmt.Errorf("cluster: ranges must be in [0, %d], got %d", maxSpecRanges, spec.Ranges)
	}
	if spec.Threads < 0 || spec.Threads > 256 {
		return nil, fmt.Errorf("cluster: threads must be in [0, 256], got %d", spec.Threads)
	}
	if _, err := kplex.ParseScheduler(spec.Scheduler); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}

	j := &djob{
		man: Manifest{
			ID:        newClusterJobID(),
			Spec:      spec,
			State:     jobs.StateQueued,
			CreatedAt: time.Now(),
		},
		subs: make(map[int]chan Progress),
	}
	j.dir = filepath.Join(c.cfg.Dir, j.man.ID)
	j.progress = Progress{State: jobs.StateQueued}
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return nil, err
	}
	if err := jobs.WriteManifest(j.dir, &j.man); err != nil {
		return nil, err
	}

	man := j.man
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		os.RemoveAll(j.dir) //nolint:errcheck // best effort on shutdown
		return nil, errClusterShutdown
	}
	c.jobs[j.man.ID] = j
	c.enqueueLocked(j)
	c.mu.Unlock()
	c.counters.Submitted.Add(1)
	return &man, nil
}

// Get returns one job's manifest plus live progress.
func (c *Coordinator) Get(id string) (*View, error) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return nil, jobs.ErrNotFound
	}
	j.mu.Lock()
	v := &View{Manifest: j.man, Progress: j.progress}
	j.mu.Unlock()
	return v, nil
}

// List returns every known distributed job, newest first.
func (c *Coordinator) List() []View {
	c.mu.Lock()
	all := make([]*djob, 0, len(c.jobs))
	for _, j := range c.jobs {
		all = append(all, j)
	}
	c.mu.Unlock()
	out := make([]View, 0, len(all))
	for _, j := range all {
		j.mu.Lock()
		out = append(out, View{Manifest: j.man, Progress: j.progress})
		j.mu.Unlock()
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].CreatedAt.Equal(out[k].CreatedAt) {
			return out[i].CreatedAt.After(out[k].CreatedAt)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Result returns a completed job's merged answer (the jobs layer's result
// shape, so distributed and single-node answers are interchangeable).
func (c *Coordinator) Result(id string) (*jobs.Result, error) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return nil, jobs.ErrNotFound
	}
	j.mu.Lock()
	state := j.man.State
	j.mu.Unlock()
	if state != jobs.StateDone {
		return nil, fmt.Errorf("%w (state %s)", jobs.ErrNotDone, state)
	}
	return jobs.ReadResult(j.dir)
}

// Cancel stops a queued or running job.
func (c *Coordinator) Cancel(id string) error {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return jobs.ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.man.State.Terminal():
		return fmt.Errorf("%w (state %s)", jobs.ErrNotActive, j.man.State)
	case j.cancel != nil:
		j.cancel(errClusterCancelled)
		return nil
	default:
		// Still queued: mark terminal here; the runner discards it on pop.
		c.setTerminalLocked(j, jobs.StateCancelled, nil)
		c.counters.Cancelled.Add(1)
		return nil
	}
}

// Delete removes a terminal job and its directory.
func (c *Coordinator) Delete(id string) error {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return jobs.ErrNotFound
	}
	j.mu.Lock()
	terminal := j.man.State.Terminal()
	j.mu.Unlock()
	if !terminal {
		return fmt.Errorf("%w: cancel it first", jobs.ErrActive)
	}
	c.mu.Lock()
	delete(c.jobs, id)
	c.mu.Unlock()
	return os.RemoveAll(j.dir)
}

// Subscribe returns a channel of progress updates starting with the
// current snapshot; closed at the job's terminal state.
func (c *Coordinator) Subscribe(id string) (<-chan Progress, func(), error) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return nil, nil, jobs.ErrNotFound
	}
	ch := make(chan Progress, 16)
	j.mu.Lock()
	ch <- j.progress
	if j.man.State.Terminal() {
		close(ch)
		j.mu.Unlock()
		return ch, func() {}, nil
	}
	idx := j.nextSub
	j.nextSub++
	j.subs[idx] = ch
	j.mu.Unlock()
	stop := func() {
		j.mu.Lock()
		if c, ok := j.subs[idx]; ok {
			delete(j.subs, idx)
			close(c)
		}
		j.mu.Unlock()
	}
	return ch, stop, nil
}

// Wait blocks until the job leaves the active states (or ctx is done).
func (c *Coordinator) Wait(ctx context.Context, id string) (*View, error) {
	ch, stop, err := c.Subscribe(id)
	if err != nil {
		return nil, err
	}
	defer stop()
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case _, ok := <-ch:
			if !ok {
				return c.Get(id)
			}
		}
	}
}

// publish stores p as the job's live progress and fans it out; dropped for
// jobs that reached a terminal state (a straggler lease reporting after
// the fact must not resurrect progress).
func (j *djob) publish(p Progress) {
	j.mu.Lock()
	if !j.man.State.Terminal() {
		p.State = j.man.State
		j.progress = p
		j.publishLocked()
	}
	j.mu.Unlock()
}

// publishLocked fans the current progress out; slow subscribers drop
// updates rather than blocking the dispatcher.
func (j *djob) publishLocked() {
	for _, ch := range j.subs {
		select {
		case ch <- j.progress:
		default:
		}
	}
}

// noteRangeDone write-through-persists per-range manifest progress.
func (j *djob) noteRangeDone(done int, enumMS float64, logf func(string, ...any)) {
	j.mu.Lock()
	j.man.RangesDone = done
	j.man.EnumMS = enumMS
	if err := jobs.WriteManifest(j.dir, &j.man); err != nil {
		logf("cluster: %s: persisting range progress: %v", j.man.ID, err)
	}
	j.mu.Unlock()
}

// setTerminalLocked moves j to a terminal state, persists it and closes
// subscriber channels. Caller holds j.mu.
func (c *Coordinator) setTerminalLocked(j *djob, state jobs.State, cause error) {
	j.man.State = state
	j.man.FinishedAt = time.Now()
	j.man.Error = ""
	if cause != nil {
		j.man.Error = cause.Error()
	}
	j.progress.State = state
	j.progress.Error = j.man.Error
	if err := jobs.WriteManifest(j.dir, &j.man); err != nil {
		c.cfg.Logf("cluster: %s: persisting terminal state: %v", j.man.ID, err)
	}
	j.publishLocked()
	for idx, ch := range j.subs {
		delete(j.subs, idx)
		close(ch)
	}
}

// runLoop pops queued jobs FIFO and runs them to a terminal (or parked)
// state, one at a time.
func (c *Coordinator) runLoop() {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.closed {
			c.cond.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			return // queued jobs stay durable for the next Open
		}
		j := c.queue[0]
		c.queue = c.queue[1:]
		c.counters.Queued.Add(-1)
		c.mu.Unlock()

		j.mu.Lock()
		if j.man.State.Terminal() { // cancelled while queued
			j.mu.Unlock()
			continue
		}
		jctx, cancel := context.WithCancelCause(c.ctx)
		j.cancel = cancel
		j.man.State = jobs.StateRunning
		if j.man.StartedAt.IsZero() {
			j.man.StartedAt = time.Now()
		}
		j.progress.State = jobs.StateRunning
		if err := jobs.WriteManifest(j.dir, &j.man); err != nil {
			c.cfg.Logf("cluster: %s: persisting running state: %v", j.man.ID, err)
		}
		j.publishLocked()
		j.mu.Unlock()

		c.counters.Running.Add(1)
		err := c.runJob(jctx, j)
		cancel(nil)
		c.counters.Running.Add(-1)
		c.finishJob(j, err)
	}
}

// finishJob classifies runJob's outcome: success, cancellation,
// shutdown-park (resumable), or failure.
func (c *Coordinator) finishJob(j *djob, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancel = nil
	if j.man.State.Terminal() {
		return
	}
	switch {
	case err == nil:
		c.setTerminalLocked(j, jobs.StateDone, nil)
		c.counters.Completed.Add(1)
	case errors.Is(err, errClusterShutdown):
		// Parked, not failed: completed ranges are durable; the next Open
		// requeues and resumes.
		j.man.State = jobs.StateCheckpointed
		j.man.Error = ""
		j.progress.State = jobs.StateCheckpointed
		if werr := jobs.WriteManifest(j.dir, &j.man); werr != nil {
			c.cfg.Logf("cluster: %s: parking checkpointed: %v", j.man.ID, werr)
		}
		j.publishLocked()
		for idx, ch := range j.subs {
			delete(j.subs, idx)
			close(ch)
		}
	case errors.Is(err, errClusterCancelled):
		c.setTerminalLocked(j, jobs.StateCancelled, nil)
		c.counters.Cancelled.Add(1)
	default:
		c.setTerminalLocked(j, jobs.StateFailed, err)
		c.counters.Failed.Add(1)
		c.cfg.Logf("cluster: %s failed: %v", j.man.ID, err)
	}
}

// runJob executes one distributed job: pin (or verify) the decomposition,
// replay completed ranges, dispatch the rest across the workers, merge.
func (c *Coordinator) runJob(ctx context.Context, j *djob) error {
	j.mu.Lock()
	spec := j.man.Spec
	// Pin the trace id with the manifest (persisted alongside the
	// decomposition pin below) so resumed incarnations extend one trace.
	if j.man.TraceID == "" && c.cfg.Tracer != nil {
		j.man.TraceID = obs.NewTraceID()
	}
	t := c.cfg.Tracer.StartWithID(j.man.TraceID, "cluster-job "+j.man.ID)
	j.mu.Unlock()
	defer t.Finish()

	prepSpan := t.StartSpan("prepare").Attr("graph", spec.Graph)
	g, digest, release, err := c.cfg.Load(spec.Graph)
	if err != nil {
		prepSpan.EndErr(err)
		return err
	}
	defer release()
	p, err := c.cfg.Prepare(g, digest, kplex.NewOptions(spec.K, spec.Q))
	if err != nil {
		prepSpan.EndErr(err)
		return err
	}
	total := p.SeedSpace()
	prepSpan.Attr("seeds", fmt.Sprint(total)).End()

	// Pin the decomposition on first run; later incarnations (and every
	// worker, via the request's digest/totalSeeds) must reproduce it
	// exactly or the per-range checkpoints describe a different job.
	j.mu.Lock()
	if j.man.Digest == "" {
		j.man.Digest = digest
		j.man.TotalSeeds = total
		n := spec.Ranges
		if n <= 0 {
			c.mu.Lock()
			n = c.cfg.RangesPerWorker * max(1, len(c.workers))
			c.mu.Unlock()
		}
		j.man.Ranges = partition(total, n)
		if err := jobs.WriteManifest(j.dir, &j.man); err != nil {
			j.mu.Unlock()
			return fmt.Errorf("cluster: pinning decomposition: %w", err)
		}
	} else if j.man.Digest != digest || j.man.TotalSeeds != total {
		j.mu.Unlock()
		return fmt.Errorf("cluster: graph %q changed since this job's checkpoints were written (digest %s→%s, seeds %d→%d); delete and resubmit", spec.Graph, j.man.Digest, digest, j.man.TotalSeeds, total)
	}
	ranges := j.man.Ranges
	resumes := j.man.Resumes
	j.mu.Unlock()

	walPath := filepath.Join(j.dir, rangeWALName)
	rep, err := replayRangeWAL(walPath, len(ranges))
	if err != nil {
		return err
	}
	w, err := jobs.OpenLog(walPath, rep.LastSeq)
	if err != nil {
		return err
	}
	defer w.Close()

	d := newDispatcher(c, j, &spec, digest, total, ranges, rep, w)
	d.trace = t
	c.mu.Lock()
	c.active = d
	c.mu.Unlock()
	err = d.run(ctx)
	c.mu.Lock()
	c.active = nil
	c.mu.Unlock()
	if err != nil {
		return err
	}

	// Merge in range order. Ranges partition the seed space, and aggregate
	// merging is exact over disjoint plex sets, so this reproduces the
	// single-node answer bit for bit.
	mergeSpan := t.StartSpan("merge").Attr("ranges", fmt.Sprint(len(ranges)))
	merged := kplex.NewAggregate(spec.TopN)
	for i := range ranges {
		merged.Merge(d.aggs[i])
	}
	mergeSpan.End()
	res := &jobs.Result{
		Count:      merged.Count,
		MaxSize:    merged.MaxSize,
		TopK:       merged.TopK,
		Histogram:  merged.Histogram,
		PlexDigest: merged.PlexDigest(),
		Stats:      merged.Stats,
		ElapsedMS:  d.enumMS(),
		Resumes:    resumes,
	}
	if res.TopK == nil {
		res.TopK = [][]int{}
	}
	if res.Histogram == nil {
		res.Histogram = map[int]int64{}
	}
	return jobs.WriteResult(j.dir, res)
}

// readManifest loads dir/manifest.json.
func readManifest(dir string) (*Manifest, error) {
	return jobs.ReadManifest(dir, func(m *Manifest) string { return m.ID })
}
