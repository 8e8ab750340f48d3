package jobs

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/obs"
)

// jobRun is the volatile state of one incarnation of a running job. A job
// is a vector of query items answered by one or more shared seed-space
// traversals (see Spec.queries); seed ids are global across the
// traversal groups — group g's local seed s is offsets[g] + s — which is
// what lets one SeedCollector and one WAL cover the whole per-seed ×
// per-item progress.
type jobRun struct {
	m   *Manager
	j   *job
	wal *Log

	offsets []int // group index -> global seed-id offset
	total   int   // global seed-space size
	col     *kplex.SeedCollector

	// Guarded by col's lock (onCommit and col.Locked).
	pendingSeeds []int // committed in memory, not yet in the WAL (global ids)
	doneThisRun  int
	lastCkpt     time.Time
	lastPublish  time.Time
	crashed      bool

	started    time.Time
	baseEnumMS float64    // enumeration time of previous incarnations
	trace      *obs.Trace // this incarnation's trace (nil when untraced)
	cancel     context.CancelCauseFunc
}

// plexes sums the committed plex deliveries across items. For a
// single-query job this is exactly the plex count.
func plexes(aggs []*kplex.Aggregate) int64 {
	var n int64
	for _, a := range aggs {
		n += a.Count
	}
	return n
}

// groupOf locates the traversal group owning a global seed id.
func (r *jobRun) groupOf(seed int) int {
	gi := len(r.offsets) - 1
	for gi > 0 && r.offsets[gi] > seed {
		gi--
	}
	return gi
}

// runJob executes one incarnation of j: load the graph, wire the seed
// hooks, enumerate with the resumed seeds skipped, checkpointing along the
// way, and land in a terminal state — unless the incarnation is
// interrupted (shutdown or the crash failpoint), in which case the durable
// state is left for the next Open to resume.
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
		// Cancelled while it sat in the queue.
		j.mu.Unlock()
		return
	}
	j.cancel = cancel
	j.mu.Unlock()

	err := m.runJobInner(j, runCtx, cancel)

	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancel = nil
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
		// Manager closing: the final checkpoint was flushed; recovery
		// resumes this job on the next Open.
	case errors.Is(err, errCancelled):
		m.finishLocked(j, StateCancelled, nil)
	default:
		m.finishLocked(j, StateFailed, err)
	}
}

func (m *Manager) runJobInner(j *job, runCtx context.Context, cancel context.CancelCauseFunc) error {
	j.mu.Lock()
	spec := j.man.Spec
	resume := j.resume
	j.resume = nil
	// Pin the trace id with the manifest so a resumed incarnation extends
	// the same trace; it is persisted with the StateRunning write below.
	if j.man.TraceID == "" && m.cfg.Tracer != nil {
		j.man.TraceID = obs.NewTraceID()
	}
	t := m.cfg.Tracer.StartWithID(j.man.TraceID, "job "+j.man.ID)
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
	// identity check and the enumeration itself; hosts with a prepared
	// cache (kplexd) resolve it there, so resumed incarnations skip the
	// prologues entirely. Group offsets define the job's global seed-id
	// space: group g's local seed s is offsets[g] + s.
	prepared := make([]*kplex.Prepared, len(groups))
	offsets := make([]int, len(groups))
	totalSeeds := 0
	for gi := range groups {
		p, err := m.prepared(g, digest, groups[gi].Cell)
		if err != nil {
			prepSpan.EndErr(err)
			return err
		}
		prepared[gi] = p
		offsets[gi] = totalSeeds
		totalSeeds += p.SeedSpace()
	}
	prepSpan.Attr("seeds", fmt.Sprint(totalSeeds)).End()

	// Pin (or verify) the identity of the decomposition the checkpoints
	// refer to. A changed graph file or seed space makes every persisted
	// seed id meaningless, so resuming would silently corrupt the result.
	j.mu.Lock()
	switch {
	case j.man.Digest == "":
		j.man.Digest = digest
		j.man.TotalSeeds = totalSeeds
	case j.man.Digest != digest:
		j.mu.Unlock()
		return fmt.Errorf("graph %q content changed since the job was checkpointed (digest %s, was %s); delete and resubmit", spec.Graph, digest[:12], j.man.Digest[:12])
	case j.man.TotalSeeds != totalSeeds:
		j.mu.Unlock()
		return fmt.Errorf("seed space changed since the job was checkpointed (%d, was %d); delete and resubmit", totalSeeds, j.man.TotalSeeds)
	}
	j.mu.Unlock()

	// Share the host's enumeration capacity with interactive queries.
	if m.cfg.Admit != nil {
		admitSpan := t.StartSpan("admission")
		releaseSlot, err := m.cfg.Admit(runCtx, spec.Tenant)
		admitSpan.EndErr(err)
		if err != nil {
			return m.interruptCause(runCtx, err)
		}
		defer releaseSlot()
	}

	members := make([]kplex.CollectMember, len(items))
	for i, it := range items {
		members[i] = kplex.CollectMember{Q: it.Q, TopN: it.TopN}
	}
	r := &jobRun{
		m:       m,
		j:       j,
		offsets: offsets,
		total:   totalSeeds,
		started: time.Now(),
		trace:   t,
		cancel:  cancel,
	}
	r.col = kplex.NewSeedCollector(totalSeeds, members, r.onCommit)
	r.lastCkpt = r.started

	// Rebuild the durable state of previous incarnations. The global skip
	// set localises into one per-group set, since each group's engine run
	// speaks its own seed-id space.
	skips := make([]*kplex.SeedSet, len(groups))
	seedsDone, lastSeq := 0, 0
	if resume != nil {
		if err := r.col.Resume(resume.doneSeeds, resume.aggs); err != nil {
			return fmt.Errorf("checkpoint does not fit the job: %w; delete and resubmit", err)
		}
		for _, s := range resume.doneSeeds {
			gi := r.groupOf(s)
			if skips[gi] == nil {
				skips[gi] = &kplex.SeedSet{}
			}
			skips[gi].Add(s - offsets[gi])
		}
		seedsDone = len(resume.doneSeeds)
		lastSeq = resume.LastSeq
		r.baseEnumMS = resume.enumMS
	}
	r.wal, err = OpenLog(filepath.Join(j.dir, walName), lastSeq)
	if err != nil {
		return err
	}
	r.wal.onSync = m.cfg.ObserveFsync
	defer r.wal.Close()

	j.mu.Lock()
	j.man.State = StateRunning
	if seedsDone > 0 {
		j.man.State = StateCheckpointed // durable progress exists already
	}
	if j.man.StartedAt.IsZero() {
		j.man.StartedAt = time.Now()
	}
	j.progress = Progress{
		State:      j.man.State,
		SeedsDone:  seedsDone,
		TotalSeeds: totalSeeds,
	}
	if resume != nil {
		j.progress.Plexes = plexes(resume.aggs)
	}
	if err := WriteManifest(j.dir, &j.man); err != nil {
		m.cfg.Logf("jobs: %s: %v", j.man.ID, err)
	}
	j.publishLocked()
	j.mu.Unlock()

	// Interval flusher: a job whose seeds complete slowly must still
	// checkpoint every CheckpointInterval.
	flusherDone := make(chan struct{})
	go func() {
		defer close(flusherDone)
		t := time.NewTicker(m.cfg.CheckpointInterval)
		defer t.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-t.C:
				r.col.Locked(func(aggs []*kplex.Aggregate, done *kplex.SeedSet) {
					if len(r.pendingSeeds) > 0 && time.Since(r.lastCkpt) >= m.cfg.CheckpointInterval {
						r.flushLocked(aggs, done)
					}
				})
			}
		}
	}()

	// Walk the traversal groups one after another; each walk fans its
	// plexes out to the group's members and reports per-seed completion in
	// the global id space.
	var runErr error
	enumSpan := t.StartSpan("enumerate").Attr("groups", fmt.Sprint(len(groups)))
	for gi := range groups {
		opts := groups[gi].Cell
		opts.SkipSeeds = skips[gi]
		r.col.Install(&opts, offsets[gi], groups[gi].Members...)
		if _, runErr = kplex.RunPrepared(runCtx, prepared[gi], opts); runErr != nil {
			break
		}
	}
	enumSpan.EndErr(runErr)
	cancel(nil)
	<-flusherDone

	// Flush whatever completed, whether we finished or were cancelled — a
	// graceful shutdown should cost zero completed seeds. The crash
	// failpoint deliberately skips this so recovery is exercised against
	// lost (completed but never flushed) seed groups, like a real crash.
	var crashed bool
	r.col.Locked(func(aggs []*kplex.Aggregate, done *kplex.SeedSet) {
		crashed = r.crashed
		if !crashed {
			r.flushLocked(aggs, done)
		}
	})
	if runErr != nil || crashed {
		return m.interruptCause(runCtx, runErr)
	}

	// Sanity: every seed must have reported (completed groups + resumed).
	aggs, done := r.col.Snapshot()
	if done.Len() != totalSeeds {
		return fmt.Errorf("internal accounting error: %d of %d seeds reported done", done.Len(), totalSeeds)
	}

	// Feed the host's cost calibrator one clean (features, runtime) pair.
	// Only fresh single-traversal runs qualify: a resumed incarnation's
	// elapsed covers part of the work, and a multi-group batch's elapsed
	// spans several feature vectors.
	if m.cfg.ObserveCost != nil && len(prepared) == 1 && r.baseEnumMS == 0 {
		m.cfg.ObserveCost(prepared[0].CostFeatures(), time.Since(r.started))
	}

	elapsedMS := r.baseEnumMS + float64(time.Since(r.started))/float64(time.Millisecond)

	j.mu.Lock()
	resumes := j.man.Resumes
	j.man.EnumMS = elapsedMS
	// The terminal publish in finishLocked sends j.progress; make it carry
	// the final numbers, not the last throttled snapshot.
	j.progress = Progress{
		State:       StateRunning, // finishLocked sets the terminal state
		SeedsDone:   totalSeeds,
		TotalSeeds:  totalSeeds,
		Checkpoints: int64(r.wal.seq),
		Plexes:      plexes(aggs),
		ElapsedMS:   float64(time.Since(r.started)) / float64(time.Millisecond),
	}
	j.mu.Unlock()

	final := Result{
		Stats:     aggs[0].Stats,
		ElapsedMS: elapsedMS,
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
	return WriteResult(j.dir, &final)
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

// onCommit runs under the collector's lock for every committed seed
// group: it queues the seed for the next checkpoint, which it takes when
// the batch or interval threshold is reached.
func (r *jobRun) onCommit(seed int, _ int64, aggs []*kplex.Aggregate, done *kplex.SeedSet) {
	r.pendingSeeds = append(r.pendingSeeds, seed)
	r.doneThisRun++
	r.m.counters.SeedsDone.Add(1)
	// Seed-count trigger, rate-limited so fast seeds don't turn every
	// batch into an fsync; the interval trigger bounds staleness either
	// way (the ticker goroutine covers jobs whose seeds stop completing).
	gap := time.Since(r.lastCkpt)
	if (len(r.pendingSeeds) >= r.m.cfg.CheckpointSeeds && gap >= r.m.cfg.MinCheckpointGap) ||
		gap >= r.m.cfg.CheckpointInterval {
		r.flushLocked(aggs, done)
	}
	if fp := r.m.cfg.CrashAfterSeeds; fp > 0 && r.doneThisRun >= fp && !r.crashed {
		r.crashed = true
		r.cancel(errCrashpoint)
	}
	if time.Since(r.lastPublish) >= 200*time.Millisecond {
		r.lastPublish = time.Now()
		progress := r.progressLocked(aggs, done)
		r.j.mu.Lock()
		r.j.progress = progress
		r.j.publishLocked()
		r.j.mu.Unlock()
	}
}

// progressLocked snapshots live progress; caller holds the collector's
// lock.
func (r *jobRun) progressLocked(aggs []*kplex.Aggregate, done *kplex.SeedSet) Progress {
	elapsed := time.Since(r.started)
	p := Progress{
		State:      StateRunning,
		SeedsDone:  done.Len(),
		TotalSeeds: r.total,
		Plexes:     plexes(aggs),
		ElapsedMS:  float64(elapsed) / float64(time.Millisecond),
	}
	if r.wal.seq > 0 {
		p.State = StateCheckpointed
	}
	p.Checkpoints = int64(r.wal.seq)
	if r.doneThisRun > 0 {
		remaining := r.total - done.Len()
		perSeed := float64(elapsed) / float64(r.doneThisRun)
		p.ETAMS = perSeed * float64(remaining) / float64(time.Millisecond)
	}
	return p
}

// flushLocked appends a WAL checkpoint covering the pending seeds and
// updates the manifest. Caller holds the collector's lock, so aggs cover
// exactly the done-set. Errors are logged, not fatal: the job keeps
// running and the seeds stay pending for the next flush.
func (r *jobRun) flushLocked(aggs []*kplex.Aggregate, done *kplex.SeedSet) {
	if len(r.pendingSeeds) == 0 {
		return
	}
	enumMS := r.baseEnumMS + float64(time.Since(r.started))/float64(time.Millisecond)
	rec := &walRecord{
		Seeds:  r.pendingSeeds,
		EnumMS: enumMS,
	}
	if len(aggs) == 1 {
		// The original single-aggregate format: logs stay replayable by (and
		// byte-compatible with) the pre-batch layout.
		rec.Agg = aggs[0].Snapshot()
	} else {
		rec.Items = make([]*kplex.Aggregate, len(aggs))
		for i, a := range aggs {
			rec.Items[i] = a.Snapshot()
		}
	}
	ckptSpan := r.trace.StartSpan("checkpoint").Attr("seeds", fmt.Sprint(len(r.pendingSeeds)))
	if err := r.wal.Append(rec); err != nil {
		ckptSpan.EndErr(err)
		r.m.cfg.Logf("jobs: %s: checkpoint write failed (retrying next flush): %v", r.j.man.ID, err)
		return
	}
	ckptSpan.End()
	r.pendingSeeds = nil
	r.lastCkpt = time.Now()
	r.m.counters.Checkpoints.Add(1)

	j := r.j
	j.mu.Lock()
	first := j.man.State != StateCheckpointed
	j.man.State = StateCheckpointed
	j.man.SeedsDone = done.Len()
	j.man.EnumMS = enumMS
	if first {
		// Only the first checkpoint needs the manifest rewrite (the state
		// transition). SeedsDone on disk may go stale after that — recovery
		// derives it from the WAL replay, and live listings read Progress —
		// so steady-state checkpoints cost exactly one fsync, the WAL's.
		if err := WriteManifest(j.dir, &j.man); err != nil {
			r.m.cfg.Logf("jobs: %s: %v", j.man.ID, err)
		}
	}
	j.mu.Unlock()
}
