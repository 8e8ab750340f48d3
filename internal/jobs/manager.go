// Package jobs is the durable asynchronous job subsystem: it turns
// long-running k-plex enumerations into persistent, observable, resumable
// background work. Each job lives in its own directory under the manager's
// jobs dir as a JSON manifest (the state machine: queued → running →
// checkpointed → done/failed/cancelled) plus the durable progress of its
// executor. The Manager owns the lifecycle — ids, the weighted-fair
// queue, recovery, cancellation, subscriptions and the shared run
// prologue — and hands each running incarnation to an Executor (see
// runner.go).
//
// The default executor runs the job on this node (see local.go): the
// engine's seed hooks (Options.OnSeedDone / OnPlexSeed / SkipSeeds) make
// the seed group the unit of recovery, contributions are committed to the
// cumulative aggregate only when the group completes, and flushed to an
// append-only WAL of fsynced checkpoints (see wal.go) every
// CheckpointSeeds seeds or CheckpointInterval. A manager opened over a
// directory with interrupted jobs replays their WALs and re-queues them
// with the completed seeds skipped, so a crash or deploy costs at most one
// checkpoint interval of work — never the whole run. The cluster package
// supplies a second executor that leases contiguous seed ranges to worker
// processes instead.
package jobs

import (
	"container/heap"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/obs"
)

// State is a job's position in the lifecycle. Queued and running are
// volatile; checkpointed means running with durable progress (a manager
// restart resumes it from its checkpoints rather than from scratch);
// done, failed and cancelled are terminal.
type State string

const (
	StateQueued       State = "queued"
	StateRunning      State = "running"
	StateCheckpointed State = "checkpointed"
	StateDone         State = "done"
	StateFailed       State = "failed"
	StateCancelled    State = "cancelled"
)

// terminal reports whether s is an end state.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Terminal is the exported form of terminal, for clients of the views.
func (s State) Terminal() bool { return s.terminal() }

// Spec is what a client submits: the result-defining query plus execution
// knobs. The graph name is resolved by the manager's loader (a kplexd
// registry name or a data-dir path, depending on the host).
//
// A spec is either a single query (K, Q, TopN at the top level) or a
// batch job (Items, with the top-level query fields left zero). A batch
// job answers every item in one run: items with equal k share a single
// seed-space traversal prepared at the group's loosest q (see
// kplex.GroupBatch), and per-seed progress checkpoints the whole item
// vector, so a resumed batch job re-enumerates only the missing seeds of
// each traversal.
type Spec struct {
	Graph     string     `json:"graph"`
	K         int        `json:"k,omitempty"`
	Q         int        `json:"q,omitempty"`
	TopN      int        `json:"topn,omitempty"`      // largest plexes kept (default kplex.DefaultTopN)
	Items     []SpecItem `json:"items,omitempty"`     // batch job: one entry per query
	Threads   int        `json:"threads,omitempty"`   // 0: manager default
	Scheduler string     `json:"scheduler,omitempty"` // "", stages, steal
	Priority  int        `json:"priority,omitempty"`  // higher runs first
	Tenant    string     `json:"tenant,omitempty"`    // QoS tenant the job belongs to ("" = default)
	// Ranges is the number of seed ranges a distributed job is split into
	// (0: the coordinator's default). Only the range executor accepts it.
	Ranges int `json:"ranges,omitempty"`
}

// SpecItem is one query of a batch job: a (k, q) cell with its own top-k
// budget.
type SpecItem struct {
	K    int `json:"k"`
	Q    int `json:"q"`
	TopN int `json:"topn,omitempty"` // default kplex.DefaultTopN, capped by Config.MaxTopN
}

// ResolvedItems returns the job's query items: the batch spec's Items, or
// the single-query fields as a 1-item list. Top-k defaults are applied at
// Submit time, so recovered manifests replay with the budgets they were
// created with.
func (s *Spec) ResolvedItems() []SpecItem {
	if len(s.Items) > 0 {
		return s.Items
	}
	return []SpecItem{{K: s.K, Q: s.Q, TopN: s.TopN}}
}

// queries builds the engine configuration of every item and the
// shared-traversal grouping for one incarnation of the job.
func (s *Spec) queries(defaultThreads int) ([]SpecItem, []kplex.BatchGroup, error) {
	items := s.ResolvedItems()
	qs := make([]kplex.BatchQuery, len(items))
	for i, it := range items {
		o, err := kplex.ServiceOptions(it.K, it.Q, s.Threads, defaultThreads, s.Scheduler)
		if err != nil {
			return nil, nil, fmt.Errorf("jobs: %w", err)
		}
		qs[i] = kplex.BatchQuery{Opts: o}
	}
	groups, err := kplex.GroupBatch(qs)
	if err != nil {
		return nil, nil, err
	}
	return items, groups, nil
}

// Manifest is the durable per-job metadata, rewritten atomically on every
// state transition and checkpoint.
type Manifest struct {
	ID         string    `json:"id"`
	Spec       Spec      `json:"spec"`
	State      State     `json:"state"`
	Digest     string    `json:"digest,omitempty"`     // graph content identity, pinned at first run
	TotalSeeds int       `json:"totalSeeds,omitempty"` // kplex.SeedSpace, pinned at first run
	SeedsDone  int       `json:"seedsDone"`            // durably checkpointed seeds
	Resumes    int       `json:"resumes"`              // interrupted incarnations recovered
	Error      string    `json:"error,omitempty"`
	CreatedAt  time.Time `json:"createdAt"`
	StartedAt  time.Time `json:"startedAt,omitzero"`
	FinishedAt time.Time `json:"finishedAt,omitzero"`
	// EnumMS is cumulative enumeration wall-clock across incarnations.
	EnumMS float64 `json:"enumMs,omitempty"`
	// TraceID names the job's trace in the host's /debug/traces ring.
	// Pinned at first run so resumed incarnations extend one trace id.
	TraceID string `json:"traceId,omitempty"`
	// Ranges is a distributed job's partition of the seed space, pinned at
	// first run: every later incarnation and every worker must agree on it
	// or the per-range checkpoints would describe a different split.
	Ranges []Range `json:"ranges,omitempty"`
	// RangesDone counts a distributed job's completed ranges.
	RangesDone int `json:"rangesDone"`
}

// Range is one contiguous slice [Lo, Hi) of a job's seed id space. A
// range's identity is its index in the manifest's pinned partition.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Progress is the live view streamed to watchers. The range fields are
// the distributed executor's; a local job leaves them zero.
type Progress struct {
	State       State   `json:"state"`
	SeedsDone   int     `json:"seedsDone"` // completed in-memory (≥ durably checkpointed)
	TotalSeeds  int     `json:"totalSeeds"`
	Checkpoints int64   `json:"checkpoints"`
	Plexes      int64   `json:"plexes"`
	ElapsedMS   float64 `json:"elapsedMs"` // this incarnation (distributed: cumulative)
	ETAMS       float64 `json:"etaMs,omitempty"`
	Error       string  `json:"error,omitempty"`

	RangesDone  int   `json:"rangesDone"`
	RangesTotal int   `json:"rangesTotal"`
	Leased      int   `json:"leased"`               // ranges currently out on lease
	Reassigned  int64 `json:"reassigned,omitempty"` // leases lost to failure or expiry
	Stolen      int64 `json:"stolen,omitempty"`     // speculative straggler re-leases
}

// progressOf is the progress a job shows before its next run publishes.
func progressOf(man *Manifest) Progress {
	return Progress{
		State: man.State, SeedsDone: man.SeedsDone, TotalSeeds: man.TotalSeeds, Error: man.Error,
		RangesDone: man.RangesDone, RangesTotal: len(man.Ranges),
	}
}

// Result is the completed job's answer, persisted as result.json. A
// single-query job fills the top-level fields; a batch job additionally
// fills Items (one entry per spec item), with the top-level Count the sum
// and MaxSize the max across items (TopK and Histogram stay empty — each
// item carries its own).
type Result struct {
	Count      int64         `json:"count"`
	MaxSize    int           `json:"maxSize"`
	TopK       [][]int       `json:"topk"`
	Histogram  map[int]int64 `json:"histogram"`
	PlexDigest string        `json:"plexDigest"` // order-independent SHA-256 XOR of the plex set
	Items      []ItemResult  `json:"items,omitempty"`
	Stats      kplex.Stats   `json:"stats"`
	ElapsedMS  float64       `json:"elapsedMs"` // cumulative across incarnations
	Resumes    int           `json:"resumes"`
}

// ItemResult is one batch item's answer, positionally aligned with the
// spec's items.
type ItemResult struct {
	K          int           `json:"k"`
	Q          int           `json:"q"`
	TopN       int           `json:"topn"`
	Count      int64         `json:"count"`
	MaxSize    int           `json:"maxSize"`
	TopK       [][]int       `json:"topk"`
	Histogram  map[int]int64 `json:"histogram"`
	PlexDigest string        `json:"plexDigest"`
}

// View is one job in listings: the manifest plus the live progress.
type View struct {
	Manifest
	Progress Progress `json:"progress"`
}

// GraphLoader resolves a job's graph name. release must be called when the
// run is over (registry-backed hosts use it to unpin the graph).
type GraphLoader func(name string) (g graph.CSR, digest string, release func(), err error)

// Config tunes a Manager. Dir and Load are required.
type Config struct {
	// Dir is the jobs directory; one subdirectory per job.
	Dir string
	// Load resolves graph names (required).
	Load GraphLoader
	// Prepare, when non-nil, resolves the prepared run prologue for a
	// job's graph and options. The host wires this to its prepared-graph
	// cache so a resumed or repeated job skips the O(n+m) prologue (kplexd
	// shares the cache its interactive queries use). When nil, the runner
	// prepares directly — still only once per incarnation, shared between
	// the seed-space check and the enumeration.
	Prepare func(g graph.CSR, digest string, opts kplex.Options) (*kplex.Prepared, error)
	// Workers is the number of concurrent jobs (default 2).
	Workers int
	// CheckpointSeeds flushes a WAL record once this many seeds completed
	// since the last one (default 64), subject to MinCheckpointGap.
	CheckpointSeeds int
	// CheckpointInterval flushes pending seeds at least this often while
	// any completed (default 2s). This is the staleness bound: a crash
	// loses at most roughly this much finished work.
	CheckpointInterval time.Duration
	// MinCheckpointGap rate-limits the seed-count trigger (default 250ms,
	// negative to disable): on jobs whose seeds complete in microseconds,
	// fsyncing every CheckpointSeeds would turn durability into the
	// dominant cost, so batches are only flushed once the gap has passed
	// (the interval trigger still bounds staleness).
	MinCheckpointGap time.Duration
	// MaxTopN rejects specs asking for more (default 1000).
	MaxTopN int
	// DefaultThreads is the engine parallelism when a spec leaves it zero
	// (default NumCPU).
	DefaultThreads int
	// Admit, when non-nil, gates each job incarnation — its prologue and
	// its enumeration — on the host's admission control (kplexd passes its
	// QoS controller, so background jobs and interactive queries share one
	// capacity budget), identified by the submitting tenant. Jobs block
	// until a slot frees rather than being rejected.
	Admit func(ctx context.Context, tenant string) (release func(), err error)
	// TenantWeight, when non-nil, maps a tenant name to its weighted-fair
	// share of the job worker pool: under a backlog, tenants' started-job
	// counts converge to their weight ratios instead of strict FIFO. Nil —
	// or any non-positive return — means weight 1. Priority still orders
	// jobs within one tenant.
	TenantWeight func(tenant string) float64
	// ObserveCost, when non-nil, receives the (prologue features, measured
	// enumeration runtime) pair of each completed single-traversal job that
	// ran start to finish in one incarnation. kplexd wires it to its cost
	// calibrator, so long background runs — precisely the queries the cost
	// model exists to route — keep the predictor honest. Resumed and
	// multi-group runs are excluded: their elapsed time does not belong to
	// any single feature vector.
	ObserveCost func(f kplex.CostFeatures, elapsed time.Duration)
	// Logf receives operational log lines (default: discarded).
	Logf func(format string, args ...any)
	// Executor runs each job incarnation once the manager has resolved its
	// prologue (default: the local seed-level executor). The checkpoint
	// and crash-failpoint settings below apply to the local executor only.
	Executor Executor

	// Tracer, when non-nil, records one trace per job incarnation
	// (admission, prepare, enumerate and checkpoint spans) under the
	// job's stable trace id, retrievable via the host's /debug/traces.
	Tracer *obs.Tracer
	// ObserveFsync, when non-nil, receives the duration of every
	// successful WAL fsync — the feed for a fsync latency histogram.
	ObserveFsync func(d time.Duration)
	// ObserveJob, when non-nil, receives the cumulative enumeration
	// wall-clock of every job that reaches Done.
	ObserveJob func(d time.Duration)

	// CrashAfterSeeds is a test failpoint: when > 0, a running job aborts
	// as if the process had died after completing that many seed groups in
	// this incarnation — no terminal state is written, so a reopened
	// manager must recover it from its last checkpoint.
	CrashAfterSeeds int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.CheckpointSeeds <= 0 {
		c.CheckpointSeeds = 64
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 2 * time.Second
	}
	switch {
	case c.MinCheckpointGap < 0:
		c.MinCheckpointGap = 0
	case c.MinCheckpointGap == 0:
		c.MinCheckpointGap = 250 * time.Millisecond
	}
	if c.MinCheckpointGap > c.CheckpointInterval {
		c.MinCheckpointGap = c.CheckpointInterval
	}
	if c.MaxTopN <= 0 {
		c.MaxTopN = 1000
	}
	if c.DefaultThreads <= 0 {
		c.DefaultThreads = runtime.NumCPU()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Executor == nil {
		c.Executor = localExecutor{}
	}
	return c
}

// Counters are the manager's monotonic counters and gauges, declared by
// newCounters on the manager's metric registry (see Metrics).
type Counters struct {
	Submitted, Completed, Failed, Cancelled, Resumed *obs.Counter
	Checkpoints, SeedsDone                           *obs.Counter // local executor only; nil otherwise
	Running, Queued                                  *obs.Gauge
}

// newCounters declares the job lifecycle once for every executor, worded
// by x.Describe. Only the local executor checkpoints seed groups, so
// only its manager declares the checkpoint and seed counters.
func newCounters(r *obs.Registry, x Executor) Counters {
	w := x.Describe()
	c := Counters{
		Submitted: r.Counter("submitted", w.Kind+" jobs submitted"+w.SubmitTo+"."),
		Completed: r.Counter("completed", w.Kind+" jobs that finished successfully."),
		Failed:    r.Counter("failed", w.Kind+" jobs that failed."),
		Cancelled: r.Counter("cancelled", w.Kind+" jobs cancelled."),
		Resumed:   r.Counter("resumed", w.Kind+" job incarnations resumed from "+w.ResumeFrom+"."),
		Running:   r.Gauge("running", w.Kind+" jobs currently running."),
		Queued:    r.Gauge("queued", w.Kind+" jobs currently queued."),
	}
	if _, ok := x.(localExecutor); ok {
		c.Checkpoints = r.Counter("checkpoints", "Job checkpoint records appended to the WAL.")
		c.SeedsDone = r.Counter("seeds_done", "Seed groups completed across all background jobs.")
	}
	return c
}

// job is the in-memory twin of one job directory.
type job struct {
	dir string

	mu       sync.Mutex
	man      Manifest
	progress Progress
	cancel   context.CancelCauseFunc // non-nil while running
	subs     map[int]chan Progress
	nextSub  int
	resume   any // recovered durable state awaiting the next run (see Executor.Recover)
}

// Manager runs and persists jobs. Create with Open, stop with Close.
type Manager struct {
	cfg  Config
	ctx  context.Context
	stop context.CancelFunc

	mu     sync.Mutex
	cond   *sync.Cond
	jobs   map[string]*job
	queues map[string]*tenantQueue // per-tenant priority heaps, drained weighted-fair
	queued int                     // total jobs across queues
	qclock float64                 // stride scheduler's virtual clock
	closed bool

	wg       sync.WaitGroup
	metrics  *obs.Registry
	counters Counters
}

// Sentinel errors mapped to HTTP statuses by the server layer.
var (
	ErrNotFound   = errors.New("job not found")
	ErrNotDone    = errors.New("job has not completed")
	ErrNotActive  = errors.New("job is not active")
	ErrActive     = errors.New("job is still active")
	errCrashpoint = errors.New("jobs: crash failpoint reached")
	errShutdown   = errors.New("jobs: manager shutting down")
	errCancelled  = errors.New("jobs: cancelled by request")
)

// Open creates (or reopens) the manager over cfg.Dir, recovering any jobs
// a previous process left queued or interrupted, and starts the worker
// pool.
func Open(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("jobs: Config.Dir is required")
	}
	if cfg.Load == nil {
		return nil, errors.New("jobs: Config.Load is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manager{cfg: cfg, jobs: make(map[string]*job), queues: make(map[string]*tenantQueue), metrics: obs.NewRegistry()}
	m.counters = newCounters(m.metrics, cfg.Executor)
	m.cond = sync.NewCond(&m.mu)
	m.ctx, m.stop = context.WithCancel(context.Background())
	if err := m.recover(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.workerLoop()
	}
	return m, nil
}

// recover scans the jobs dir and re-queues everything non-terminal.
func (m *Manager) recover() error {
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		dir := filepath.Join(m.cfg.Dir, ent.Name())
		man, err := ReadManifest(dir)
		if err != nil {
			m.cfg.Logf("jobs: skipping %s: %v", dir, err)
			continue
		}
		j := &job{dir: dir, man: *man, subs: make(map[int]chan Progress)}
		j.progress = progressOf(man)
		switch man.State {
		case StateDone, StateFailed, StateCancelled:
			// Terminal: index for listings and result retrieval only.
		case StateRunning, StateCheckpointed:
			// Interrupted mid-run: recover the durable progress and resume.
			// None still counts as a recovered interruption — the
			// incarnation just died before its first checkpoint.
			if !m.wireResume(j) {
				m.jobs[man.ID] = j
				continue
			}
			m.markResumed(j)
			// In-memory only: the on-disk state stays checkpointed/running
			// so that dying again before the rerun starts loses nothing —
			// the next Open simply replays the same checkpoints. (Persisting
			// "queued" here would make that next Open treat the job as
			// never-run and discard the checkpoints.)
			j.man.State = StateQueued
			j.man.Error = ""
			j.progress = progressOf(&j.man)
			m.enqueueLocked(j)
		case StateQueued:
			// A fresh job has no checkpoints; wireResume recovers
			// defensively anyway so a dir that somehow pairs a queued
			// manifest with a WAL (e.g. written by an older manager
			// version) resumes rather than re-enumerating and appending
			// colliding sequence numbers.
			if !m.wireResume(j) {
				m.jobs[man.ID] = j
				continue
			}
			if j.resume != nil {
				m.markResumed(j)
			}
			m.enqueueLocked(j)
		default:
			m.cfg.Logf("jobs: %s: unknown state %q, leaving untouched", man.ID, man.State)
		}
		m.jobs[man.ID] = j
	}
	return nil
}

// wireResume has the executor recover j's durable progress and arms the
// in-memory resume state. It reports false — after marking the job failed
// — when the durable state is unusable. Single-threaded recovery context;
// no locks held.
func (m *Manager) wireResume(j *job) bool {
	resume, err := m.cfg.Executor.Recover(j.dir, &j.man, m.cfg.Logf)
	if err != nil {
		m.failRecovered(j, err)
		return false
	}
	j.resume = resume
	return true
}

// markResumed scores one recovered interruption on the job and the
// manager's counters.
func (m *Manager) markResumed(j *job) {
	j.man.Resumes++
	m.counters.Resumed.Add(1)
}

// failRecovered marks a job that cannot be recovered as failed.
func (m *Manager) failRecovered(j *job, cause error) {
	j.man.State = StateFailed
	j.man.Error = cause.Error()
	j.man.FinishedAt = time.Now()
	j.progress = progressOf(&j.man)
	if err := WriteManifest(j.dir, &j.man); err != nil {
		m.cfg.Logf("jobs: %s: %v", j.man.ID, err)
	}
	m.counters.Failed.Add(1)
}

// Close stops accepting work, interrupts running jobs (they flush a final
// checkpoint, so a subsequent Open resumes them), and waits for the
// workers to exit.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.stop()
	m.cond.Broadcast()
	m.wg.Wait()
}

// Counters exposes the manager's counters.
func (m *Manager) Counters() *Counters { return &m.counters }

// Metrics is the registry the manager's counters are declared on, for the
// host to mount under its own prefix.
func (m *Manager) Metrics() *obs.Registry { return m.metrics }

// maxSpecItems bounds a batch job's fan-out; like the server's item cap,
// an open submission surface needs a ceiling.
const maxSpecItems = 256

// newJobID returns a fresh collision-resistant id.
func newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failing means the host is unusable
	}
	return "j" + hex.EncodeToString(b[:])
}

// Submit validates spec, persists a queued job and wakes a worker.
func (m *Manager) Submit(spec Spec) (*Manifest, error) {
	if err := m.normalizeSpec(&spec); err != nil {
		return nil, err
	}
	return m.persistAndEnqueue(spec, nil)
}

// SubmitResumable persists a queued job born with durable progress: the
// server's deadline-partial query path hands over the seeds it completed
// before the deadline plus their merged aggregate, and the job enumerates
// only the remainder — the "resume token" a partial answer carries. The
// progress is written as the job's first WAL record before the job is
// queued, so a crash between submission and the first run loses nothing.
// An empty done-set (or nil aggregate) degenerates to a plain Submit.
func (m *Manager) SubmitResumable(spec Spec, digest string, totalSeeds int, doneSeeds []int, agg *kplex.Aggregate, enumMS float64) (*Manifest, error) {
	if _, ok := m.cfg.Executor.(localExecutor); !ok {
		return nil, errors.New("jobs: resumable submissions need the local executor")
	}
	if len(spec.Items) > 0 {
		return nil, errors.New("jobs: a resumable submission must be a single query")
	}
	if len(doneSeeds) == 0 || agg == nil {
		return m.Submit(spec)
	}
	if digest == "" || totalSeeds <= 0 {
		return nil, errors.New("jobs: a resumable submission needs the graph digest and seed-space size its done-seeds refer to")
	}
	seen := make(map[int]bool, len(doneSeeds))
	for _, s := range doneSeeds {
		if s < 0 || s >= totalSeeds {
			return nil, fmt.Errorf("jobs: done seed %d outside the %d-seed space", s, totalSeeds)
		}
		if seen[s] {
			return nil, fmt.Errorf("jobs: duplicate done seed %d", s)
		}
		seen[s] = true
	}
	if err := m.normalizeSpec(&spec); err != nil {
		return nil, err
	}
	seeds := append([]int(nil), doneSeeds...)
	snap := agg.Snapshot() // private copy: the WAL payload and the armed runtime state
	return m.persistAndEnqueue(spec, func(j *job) error {
		w, err := OpenLog(filepath.Join(j.dir, walName), 0)
		if err != nil {
			return err
		}
		if err := w.Append(&walRecord{Seeds: seeds, Agg: snap, EnumMS: enumMS}); err != nil {
			w.Close() //nolint:errcheck // append already failed
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		m.counters.Checkpoints.Add(1)
		m.counters.SeedsDone.Add(int64(len(seeds)))
		j.man.Digest = digest
		j.man.TotalSeeds = totalSeeds
		j.man.SeedsDone = len(seeds)
		j.man.EnumMS = enumMS
		j.progress = progressOf(&j.man)
		// Arm the runner directly instead of re-reading the record it just
		// wrote; the WAL stays the durable twin for a restart in between.
		j.resume = &walReplay{LogReplay: LogReplay{LastSeq: 1}, doneSeeds: seeds, aggs: []*kplex.Aggregate{snap}, enumMS: enumMS}
		return nil
	})
}

// normalizeSpec validates spec and applies submission-time defaults (the
// top-k budgets), mutating it in place.
func (m *Manager) normalizeSpec(spec *Spec) error {
	if spec.Graph == "" {
		return errors.New("jobs: graph is required")
	}
	if len(spec.Items) > 0 {
		if spec.K != 0 || spec.Q != 0 || spec.TopN != 0 {
			return errors.New("jobs: a batch spec sets items only; leave the top-level k, q and topn zero")
		}
		if len(spec.Items) > maxSpecItems {
			return fmt.Errorf("jobs: too many items (%d, max %d)", len(spec.Items), maxSpecItems)
		}
		// Default the budgets on a private copy: the caller owns the slice's
		// backing array, and Submit must not write through it.
		spec.Items = append([]SpecItem(nil), spec.Items...)
		for i := range spec.Items {
			it := &spec.Items[i]
			if it.TopN == 0 {
				it.TopN = kplex.DefaultTopN
			}
			if it.TopN < 1 || it.TopN > m.cfg.MaxTopN {
				return fmt.Errorf("jobs: item %d: topn must be in [1, %d], got %d", i, m.cfg.MaxTopN, it.TopN)
			}
		}
	} else {
		if spec.TopN == 0 {
			spec.TopN = kplex.DefaultTopN
		}
		if spec.TopN < 1 || spec.TopN > m.cfg.MaxTopN {
			return fmt.Errorf("jobs: topn must be in [1, %d], got %d", m.cfg.MaxTopN, spec.TopN)
		}
	}
	if _, _, err := spec.queries(m.cfg.DefaultThreads); err != nil {
		return err
	}
	return m.cfg.Executor.Validate(spec)
}

// persistAndEnqueue creates the job directory, runs init (if any) to lay
// down extra durable state before the manifest, writes the manifest and
// enqueues the job. The job becomes durable before it becomes runnable, so
// a crash between the two leaves a recoverable directory, never a running
// ghost.
func (m *Manager) persistAndEnqueue(spec Spec, init func(j *job) error) (*Manifest, error) {
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return nil, errShutdown
	}

	j := &job{
		man: Manifest{
			ID:        newJobID(),
			Spec:      spec,
			State:     StateQueued,
			CreatedAt: time.Now(),
		},
		subs: make(map[int]chan Progress),
	}
	j.dir = filepath.Join(m.cfg.Dir, j.man.ID)
	j.progress = Progress{State: StateQueued}
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return nil, err
	}
	if init != nil {
		if err := init(j); err != nil {
			os.RemoveAll(j.dir) //nolint:errcheck // best effort on failed init
			return nil, err
		}
	}
	if err := WriteManifest(j.dir, &j.man); err != nil {
		return nil, err
	}

	man := j.man // copy before a worker can pop the job and mutate it
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		// Close raced the persistence above: a rejected submission must not
		// leave a durable queued job for the next Open to run as a ghost.
		os.RemoveAll(j.dir) //nolint:errcheck // best effort on shutdown
		return nil, errShutdown
	}
	m.jobs[j.man.ID] = j
	m.enqueueLocked(j)
	m.mu.Unlock()
	m.counters.Submitted.Add(1)
	return &man, nil
}

// enqueueLocked pushes j onto its tenant's queue and signals one worker.
// Caller holds m.mu (or is inside single-threaded recovery).
func (m *Manager) enqueueLocked(j *job) {
	tenant := j.man.Spec.Tenant
	tq := m.queues[tenant]
	if tq == nil {
		tq = &tenantQueue{}
		m.queues[tenant] = tq
	}
	heap.Push(&tq.heap, j)
	m.queued++
	m.counters.Queued.Add(1)
	m.cond.Signal()
}

// popLocked removes and returns the next job to run: the tenant with the
// smallest stride pass among those with queued jobs goes first, its pass
// advancing by 1/weight per started job — so under a backlog, started-job
// counts converge to weight ratios, while a single-tenant deployment
// degenerates to the old priority/FIFO order exactly. Caller holds m.mu
// and has checked m.queued > 0.
func (m *Manager) popLocked() *job {
	var bestName string
	var best *tenantQueue
	for name, tq := range m.queues {
		if tq.heap.Len() == 0 {
			continue
		}
		if best == nil || tq.pass < best.pass || (tq.pass == best.pass && name < bestName) {
			best, bestName = tq, name
		}
	}
	weight := 1.0
	if m.cfg.TenantWeight != nil {
		if w := m.cfg.TenantWeight(bestName); w > 0 {
			weight = w
		}
	}
	// An idle tenant rejoins at the virtual clock rather than its stale
	// pass, so idling banks no credit.
	start := max(best.pass, m.qclock)
	best.pass = start + 1/weight
	m.qclock = start
	m.queued--
	return heap.Pop(&best.heap).(*job)
}

// tenantQueue is one tenant's job backlog plus its stride-scheduling pass.
type tenantQueue struct {
	heap jobQueue
	pass float64
}

// Get returns one job's view.
func (m *Manager) Get(id string) (*View, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	j.mu.Lock()
	v := &View{Manifest: j.man, Progress: j.progress}
	j.mu.Unlock()
	return v, nil
}

// List returns every known job, newest first.
func (m *Manager) List() []View {
	m.mu.Lock()
	all := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		all = append(all, j)
	}
	m.mu.Unlock()
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

// Result returns a completed job's answer.
func (m *Manager) Result(id string) (*Result, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	j.mu.Lock()
	state := j.man.State
	j.mu.Unlock()
	if state != StateDone {
		return nil, fmt.Errorf("%w (state %s)", ErrNotDone, state)
	}
	return ReadResult(j.dir)
}

// Cancel stops a queued or running job. Terminal jobs return ErrNotActive.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.man.State.terminal():
		return fmt.Errorf("%w (state %s)", ErrNotActive, j.man.State)
	case j.cancel != nil:
		j.cancel(errCancelled)
		return nil
	default:
		// Still queued: mark terminal here; the worker discards it on pop.
		if j.man.State == StateQueued {
			m.counters.Queued.Add(-1)
		}
		m.finishLocked(j, StateCancelled, nil)
		return nil
	}
}

// Delete removes a terminal job and its directory. Active jobs must be
// cancelled first.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	j.mu.Lock()
	terminal := j.man.State.terminal()
	j.mu.Unlock()
	if !terminal {
		return fmt.Errorf("%w: cancel it first", ErrActive)
	}
	m.mu.Lock()
	delete(m.jobs, id)
	m.mu.Unlock()
	return os.RemoveAll(j.dir)
}

// Subscribe returns a channel of progress updates for the job, starting
// with its current snapshot; the channel is closed once the job reaches a
// terminal state. Call the returned stop function to unsubscribe early.
func (m *Manager) Subscribe(id string) (<-chan Progress, func(), error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, nil, ErrNotFound
	}
	ch := make(chan Progress, 16)
	j.mu.Lock()
	ch <- j.progress
	if j.man.State.terminal() {
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

// Wait blocks until the job reaches a terminal state (or ctx is done) and
// returns its final view.
func (m *Manager) Wait(ctx context.Context, id string) (*View, error) {
	ch, stop, err := m.Subscribe(id)
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
				return m.Get(id)
			}
		}
	}
}

// publishLocked fans the current progress out to subscribers; caller holds
// j.mu. Slow subscribers drop updates rather than blocking the engine.
func (j *job) publishLocked() {
	for _, ch := range j.subs {
		select {
		case ch <- j.progress:
		default:
		}
	}
}

// finishLocked moves j to a terminal state, persists the manifest and
// closes subscriber channels. Caller holds j.mu.
func (m *Manager) finishLocked(j *job, state State, cause error) {
	j.man.State = state
	j.man.FinishedAt = time.Now()
	if cause != nil {
		j.man.Error = cause.Error()
	}
	j.progress.State = state
	j.progress.Error = j.man.Error
	if err := WriteManifest(j.dir, &j.man); err != nil {
		m.cfg.Logf("jobs: %s: persisting terminal state: %v", j.man.ID, err)
	}
	j.publishLocked()
	for idx, ch := range j.subs {
		delete(j.subs, idx)
		close(ch)
	}
	switch state {
	case StateDone:
		m.counters.Completed.Add(1)
		if m.cfg.ObserveJob != nil {
			m.cfg.ObserveJob(time.Duration(j.man.EnumMS * float64(time.Millisecond)))
		}
	case StateFailed:
		m.counters.Failed.Add(1)
	case StateCancelled:
		m.counters.Cancelled.Add(1)
	}
}

// workerLoop pops jobs by priority and runs them until Close.
func (m *Manager) workerLoop() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for m.queued == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		j := m.popLocked()
		m.mu.Unlock()
		m.runJob(j)
	}
}

// jobQueue is a priority heap: higher Spec.Priority first, then FIFO.
type jobQueue []*job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, k int) bool {
	if q[i].man.Spec.Priority != q[k].man.Spec.Priority {
		return q[i].man.Spec.Priority > q[k].man.Spec.Priority
	}
	if !q[i].man.CreatedAt.Equal(q[k].man.CreatedAt) {
		return q[i].man.CreatedAt.Before(q[k].man.CreatedAt)
	}
	return q[i].man.ID < q[k].man.ID
}
func (q jobQueue) Swap(i, k int) { q[i], q[k] = q[k], q[i] }
func (q *jobQueue) Push(x any)   { *q = append(*q, x.(*job)) }
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return x
}
