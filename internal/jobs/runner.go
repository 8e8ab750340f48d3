package jobs

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/obs"
)

// Executor is what a running job does once the manager has resolved its
// prologue. The manager owns everything around it: the queue, recovery,
// the graph load and prepare, the digest and seed-space pin, admission,
// the result file and the terminal transition. The local executor (the
// default) enumerates on this node with seed-level checkpoints; the
// cluster package supplies one that leases seed ranges to workers.
type Executor interface {
	// Validate checks the executor's own constraints on a submitted spec,
	// after the manager has validated the query and applied defaults.
	Validate(spec *Spec) error
	// Recover reads the durable progress in an interrupted job's directory
	// at Open. It may update man (the in-memory manifest) and returns the
	// state handed to the next Run as Run.Resume (nil: none). An error
	// fails the job.
	Recover(dir string, man *Manifest, logf func(string, ...any)) (resume any, err error)
	// Run executes one incarnation and returns the final per-item
	// aggregates plus the cumulative enumeration wall-clock in ms. When ctx
	// is cancelled it returns early, leaving its durable progress for the
	// next incarnation.
	Run(ctx context.Context, r *Run) (aggs []*kplex.Aggregate, enumMS float64, err error)
}

// Run is one incarnation of a job as its executor sees it: the resolved
// prologue plus handles on the job's manifest and live progress. Seed ids
// are global across the traversal groups: group g's local seed s is
// Offsets[g] + s.
type Run struct {
	ID         string
	Dir        string
	Spec       Spec
	Items      []SpecItem
	Groups     []kplex.BatchGroup
	Prepared   []*kplex.Prepared // one per group
	Offsets    []int             // group index -> global seed-id offset
	Digest     string
	TotalSeeds int
	Trace      *obs.Trace // nil when untraced
	Resume     any        // from Executor.Recover (or a resumable submission)

	m      *Manager
	j      *job
	cancel context.CancelCauseFunc
}

// Update applies fn to the job's manifest and persists it atomically. fn
// runs under the job's lock, so it must only edit the manifest.
func (r *Run) Update(fn func(man *Manifest)) error {
	r.j.mu.Lock()
	defer r.j.mu.Unlock()
	fn(&r.j.man)
	return WriteManifest(r.j.dir, &r.j.man)
}

// Publish stores p, stamped with the job's state, as the live progress
// and fans it out to subscribers. It is dropped once the job is terminal,
// so a straggler reporting after the fact cannot resurrect progress.
func (r *Run) Publish(p Progress) {
	r.j.mu.Lock()
	defer r.j.mu.Unlock()
	if r.j.man.State.terminal() {
		return
	}
	p.State = r.j.man.State
	r.j.progress = p
	r.j.publishLocked()
}

// Logf writes an operational log line through the manager's logger.
func (r *Run) Logf(format string, args ...any) { r.m.cfg.Logf(format, args...) }

// runJob executes one incarnation of j and lands it in a terminal state —
// unless the incarnation is interrupted (shutdown or the crash failpoint),
// in which case the durable state is left for the next Open to resume.
func (m *Manager) runJob(j *job) {
	// Register the cancel hook before ANY work, in the same critical
	// section that re-checks the state. From here on Manager.Cancel always
	// goes through the context — it can never take the "still queued"
	// branch and mark a job terminal while this worker keeps running it
	// (which would let a Delete remove the directory under the active run).
	runCtx, cancel := context.WithCancelCause(m.ctx)
	defer cancel(nil)
	j.mu.Lock()
	if j.man.State != StateQueued {
		// Cancelled while it sat in the queue (Cancel already left the
		// queued gauge).
		j.mu.Unlock()
		return
	}
	j.cancel = cancel
	m.counters.Queued.Add(-1)
	m.counters.Running.Add(1)
	j.mu.Unlock()

	err := m.runIncarnation(runCtx, cancel, j)

	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancel = nil
	// Leave the running gauge under the lock that publishes the outcome,
	// so a client that sees the job done never scrapes it as running.
	// Parked incarnations (shutdown, crash failpoint) leave it here too.
	m.counters.Running.Add(-1)
	switch {
	case err == nil:
		m.finishLocked(j, StateDone, nil)
	case errors.Is(err, errCrashpoint):
		// Simulated process death: leave the durable state exactly as a
		// crash would. The in-memory job is parked (not re-queued): a real
		// crash takes the process with it, and tests reopen the directory
		// with a fresh manager to exercise recovery.
		m.cfg.Logf("jobs: %s: crash failpoint hit", j.man.ID)
	case errors.Is(err, errShutdown):
		// Manager closing: the executor's progress is durable; recovery
		// resumes this job on the next Open.
	case errors.Is(err, errCancelled):
		m.finishLocked(j, StateCancelled, nil)
	default:
		m.finishLocked(j, StateFailed, err)
	}
}

// runIncarnation is the run prologue shared by every executor — load the
// graph, prepare it, pin or verify the decomposition, take an admission
// slot — followed by the executor's run and the result write.
func (m *Manager) runIncarnation(ctx context.Context, cancel context.CancelCauseFunc, j *job) error {
	j.mu.Lock()
	id, spec := j.man.ID, j.man.Spec
	resume := j.resume
	j.resume = nil
	// Pin the trace id with the manifest so a resumed incarnation extends
	// the same trace; it is persisted with the StateRunning write below.
	if j.man.TraceID == "" && m.cfg.Tracer != nil {
		j.man.TraceID = obs.NewTraceID()
	}
	t := m.cfg.Tracer.StartWithID(j.man.TraceID, "job "+id)
	j.mu.Unlock()
	defer t.Finish()

	items, groups, err := spec.queries(m.cfg.DefaultThreads)
	if err != nil {
		return err
	}

	prepSpan := t.StartSpan("prepare").Attr("graph", spec.Graph)
	g, digest, release, err := m.cfg.Load(spec.Graph)
	if err != nil {
		prepSpan.EndErr(err)
		return fmt.Errorf("loading graph %q: %w", spec.Graph, err)
	}
	defer release()

	// One prepared prologue per traversal group serves both the seed-space
	// identity check and the execution itself; hosts with a prepared cache
	// (kplexd) resolve it there, so resumed incarnations skip the
	// prologues entirely. Group offsets define the job's global seed-id
	// space.
	r := &Run{
		ID: id, Dir: j.dir, Spec: spec, Items: items, Groups: groups, Digest: digest, Trace: t, Resume: resume,
		Prepared: make([]*kplex.Prepared, len(groups)), Offsets: make([]int, len(groups)),
		m: m, j: j, cancel: cancel,
	}
	for gi := range groups {
		p, err := m.prepared(g, digest, groups[gi].Cell)
		if err != nil {
			prepSpan.EndErr(err)
			return err
		}
		r.Prepared[gi] = p
		r.Offsets[gi] = r.TotalSeeds
		r.TotalSeeds += p.SeedSpace()
	}
	prepSpan.Attr("seeds", fmt.Sprint(r.TotalSeeds)).End()

	// Pin (or verify) the identity of the decomposition the checkpoints
	// refer to. A changed graph file or seed space makes every persisted
	// seed id meaningless, so resuming would silently corrupt the result.
	j.mu.Lock()
	switch {
	case j.man.Digest == "":
		j.man.Digest = digest
		j.man.TotalSeeds = r.TotalSeeds
	case j.man.Digest != digest:
		j.mu.Unlock()
		return fmt.Errorf("graph %q content changed since the job was checkpointed (digest %s, was %s); delete and resubmit", spec.Graph, digest[:12], j.man.Digest[:12])
	case j.man.TotalSeeds != r.TotalSeeds:
		j.mu.Unlock()
		return fmt.Errorf("seed space changed since the job was checkpointed (%d, was %d); delete and resubmit", r.TotalSeeds, j.man.TotalSeeds)
	}
	j.mu.Unlock()

	// Share the host's enumeration capacity with interactive queries.
	if m.cfg.Admit != nil {
		admitSpan := t.StartSpan("admission")
		releaseSlot, err := m.cfg.Admit(ctx, spec.Tenant)
		admitSpan.EndErr(err)
		if err != nil {
			return m.interruptCause(ctx, err)
		}
		defer releaseSlot()
	}

	j.mu.Lock()
	j.man.State = StateRunning
	if j.man.SeedsDone > 0 || j.man.RangesDone > 0 {
		j.man.State = StateCheckpointed // durable progress exists already
	}
	if j.man.StartedAt.IsZero() {
		j.man.StartedAt = time.Now()
	}
	j.progress = progressOf(&j.man)
	if err := WriteManifest(j.dir, &j.man); err != nil {
		m.cfg.Logf("jobs: %s: %v", j.man.ID, err)
	}
	j.publishLocked()
	j.mu.Unlock()

	started := time.Now()
	aggs, enumMS, err := m.cfg.Executor.Run(ctx, r)
	if err != nil {
		return m.interruptCause(ctx, err)
	}

	// Feed the host's cost calibrator one clean (features, runtime) pair.
	// Only fresh single-traversal runs qualify: a resumed incarnation's
	// elapsed covers part of the work, and a multi-group batch's elapsed
	// spans several feature vectors.
	if m.cfg.ObserveCost != nil && len(r.Prepared) == 1 && resume == nil {
		m.cfg.ObserveCost(r.Prepared[0].CostFeatures(), time.Since(started))
	}

	j.mu.Lock()
	j.man.EnumMS = enumMS
	resumes := j.man.Resumes
	j.mu.Unlock()
	return WriteResult(j.dir, newResult(&spec, items, aggs, enumMS, resumes))
}

// newResult assembles a completed job's answer from its per-item
// aggregates.
func newResult(spec *Spec, items []SpecItem, aggs []*kplex.Aggregate, enumMS float64, resumes int) *Result {
	final := &Result{
		Stats:     aggs[0].Stats,
		ElapsedMS: enumMS,
		Resumes:   resumes,
	}
	if len(spec.Items) == 0 {
		// A single-query spec keeps the original result shape. A batch spec
		// fills Items even when it holds one item — clients that submitted
		// a vector read a vector back.
		a := aggs[0]
		final.Count = a.Count
		final.MaxSize = a.MaxSize
		final.TopK = a.TopK
		final.Histogram = a.Histogram
		final.PlexDigest = a.PlexDigest()
	} else {
		for i, a := range aggs {
			item := ItemResult{
				K:          items[i].K,
				Q:          items[i].Q,
				TopN:       items[i].TopN,
				Count:      a.Count,
				MaxSize:    a.MaxSize,
				TopK:       a.TopK,
				Histogram:  a.Histogram,
				PlexDigest: a.PlexDigest(),
			}
			if item.TopK == nil {
				item.TopK = [][]int{}
			}
			if item.Histogram == nil {
				item.Histogram = map[int]int64{}
			}
			final.Items = append(final.Items, item)
			final.Count += a.Count
			if a.MaxSize > final.MaxSize {
				final.MaxSize = a.MaxSize
			}
		}
	}
	if final.TopK == nil {
		final.TopK = [][]int{}
	}
	if final.Histogram == nil {
		final.Histogram = map[int]int64{}
	}
	return final
}

// prepared resolves the run prologue through the host's cache when one is
// wired, falling back to a direct Prepare.
func (m *Manager) prepared(g graph.CSR, digest string, opts kplex.Options) (*kplex.Prepared, error) {
	if m.cfg.Prepare != nil {
		return m.cfg.Prepare(g, digest, opts)
	}
	return kplex.Prepare(g, opts)
}

// interruptCause classifies why an incarnation stopped early, preferring
// the recorded cancel cause (crash failpoint, explicit cancel) over the
// generic context error.
func (m *Manager) interruptCause(ctx context.Context, fallback error) error {
	cause := context.Cause(ctx)
	switch {
	case errors.Is(cause, errCrashpoint) || errors.Is(cause, errCancelled):
		return cause
	case m.ctx.Err() != nil:
		return errShutdown
	case fallback != nil:
		return fallback
	default:
		return cause
	}
}
