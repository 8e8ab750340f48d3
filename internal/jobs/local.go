package jobs

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/kplex"
	"repro/internal/obs"
)

// localExecutor runs a job on this node: it walks the traversal groups
// with the engine's seed hooks wired into one SeedCollector and
// checkpoints committed seeds to the job's WAL.
type localExecutor struct{}

// Validate rejects the distributed executor's knobs.
func (localExecutor) Validate(spec *Spec) error {
	if spec.Ranges != 0 {
		return errors.New("jobs: ranges applies only to distributed jobs")
	}
	return nil
}

// Describe words the local executor's jobs.
func (localExecutor) Describe() Wording {
	return Wording{Kind: "Background", ResumeFrom: "a checkpoint"}
}

// Recover replays the job's WAL (if any), repairs a torn tail, and
// restores the durable seed count and enumeration time.
func (localExecutor) Recover(dir string, man *Manifest, logf func(string, ...any)) (any, error) {
	rep, err := replayWAL(filepath.Join(dir, walName))
	if err != nil {
		return nil, fmt.Errorf("unrecoverable WAL: %w", err)
	}
	if rep.Truncated {
		logf("jobs: %s: discarded torn WAL tail; resuming from seq %d (%d seeds)", man.ID, rep.LastSeq, len(rep.doneSeeds))
	}
	man.SeedsDone = len(rep.doneSeeds)
	man.EnumMS = rep.enumMS
	if rep.LastSeq == 0 {
		return nil, nil // nothing durable yet; the rerun starts from scratch
	}
	return rep, nil
}

// jobRun is the volatile state of one local incarnation of a running job.
// A job is a vector of query items answered by one or more shared
// seed-space traversals (see Spec.queries); global seed ids are what let
// one SeedCollector and one WAL cover the whole per-seed × per-item
// progress.
type jobRun struct {
	m   *Manager
	run *Run
	wal *Log

	total int // global seed-space size
	col   *kplex.SeedCollector

	// Guarded by col's lock (onCommit and col.Locked).
	pendingSeeds []int // committed in memory, not yet in the WAL (global ids)
	doneThisRun  int
	lastCkpt     time.Time
	lastPublish  time.Time
	crashed      bool

	started    time.Time
	baseEnumMS float64    // enumeration time of previous incarnations
	trace      *obs.Trace // this incarnation's trace (nil when untraced)
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
func groupOf(offsets []int, seed int) int {
	gi := len(offsets) - 1
	for gi > 0 && offsets[gi] > seed {
		gi--
	}
	return gi
}

// Run enumerates the seeds the job's checkpoints do not cover, flushing
// checkpoints along the way.
func (localExecutor) Run(ctx context.Context, run *Run) ([]*kplex.Aggregate, float64, error) {
	m := run.m
	members := make([]kplex.CollectMember, len(run.Items))
	for i, it := range run.Items {
		members[i] = kplex.CollectMember{Q: it.Q, TopN: it.TopN}
	}
	r := &jobRun{
		m:       m,
		run:     run,
		total:   run.TotalSeeds,
		started: time.Now(),
		trace:   run.Trace,
	}
	r.col = kplex.NewSeedCollector(run.TotalSeeds, members, r.onCommit)
	r.lastCkpt = r.started

	// Rebuild the durable state of previous incarnations. The global skip
	// set localises into one per-group set, since each group's engine run
	// speaks its own seed-id space.
	skips := make([]*kplex.SeedSet, len(run.Groups))
	lastSeq := 0
	if resume, _ := run.Resume.(*walReplay); resume != nil {
		if err := r.col.Resume(resume.doneSeeds, resume.aggs); err != nil {
			return nil, 0, fmt.Errorf("checkpoint does not fit the job: %w; delete and resubmit", err)
		}
		for _, s := range resume.doneSeeds {
			gi := groupOf(run.Offsets, s)
			if skips[gi] == nil {
				skips[gi] = &kplex.SeedSet{}
			}
			skips[gi].Add(s - run.Offsets[gi])
		}
		lastSeq = resume.LastSeq
		r.baseEnumMS = resume.enumMS
		run.Publish(Progress{SeedsDone: len(resume.doneSeeds), TotalSeeds: r.total, Plexes: plexes(resume.aggs)})
	}
	var err error
	r.wal, err = OpenLog(filepath.Join(run.Dir, walName), lastSeq)
	if err != nil {
		return nil, 0, err
	}
	r.wal.onSync = m.cfg.ObserveFsync
	defer r.wal.Close()

	// Interval flusher: a job whose seeds complete slowly must still
	// checkpoint every CheckpointInterval.
	flushCtx, stopFlusher := context.WithCancel(ctx)
	flusherDone := make(chan struct{})
	go func() {
		defer close(flusherDone)
		t := time.NewTicker(m.cfg.CheckpointInterval)
		defer t.Stop()
		for {
			select {
			case <-flushCtx.Done():
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
	enumSpan := run.Trace.StartSpan("enumerate").Attr("groups", fmt.Sprint(len(run.Groups)))
	for gi := range run.Groups {
		opts := run.Groups[gi].Cell
		opts.SkipSeeds = skips[gi]
		r.col.Install(&opts, run.Offsets[gi], run.Groups[gi].Members...)
		if _, runErr = kplex.RunPrepared(ctx, run.Prepared[gi], opts); runErr != nil {
			break
		}
	}
	enumSpan.EndErr(runErr)
	stopFlusher()
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
	switch {
	case crashed:
		return nil, 0, errCrashpoint
	case runErr != nil:
		return nil, 0, runErr
	}

	// Sanity: every seed must have reported (completed groups + resumed).
	aggs, done := r.col.Snapshot()
	if done.Len() != r.total {
		return nil, 0, fmt.Errorf("internal accounting error: %d of %d seeds reported done", done.Len(), r.total)
	}
	// The terminal publish sends the last progress; make it carry the
	// final numbers, not the last throttled snapshot.
	run.Publish(Progress{
		SeedsDone:   r.total,
		TotalSeeds:  r.total,
		Checkpoints: int64(r.wal.seq),
		Plexes:      plexes(aggs),
		ElapsedMS:   float64(time.Since(r.started)) / float64(time.Millisecond),
	})
	return aggs, r.baseEnumMS + float64(time.Since(r.started))/float64(time.Millisecond), nil
}

// onCommit runs under the collector's lock for every committed seed
// group: it queues the seed for the next checkpoint, which it takes when
// the batch or interval threshold is reached.
func (r *jobRun) onCommit(seed int, aggs []*kplex.Aggregate, done *kplex.SeedSet) {
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
		r.run.cancel(errCrashpoint)
	}
	if time.Since(r.lastPublish) >= 200*time.Millisecond {
		r.lastPublish = time.Now()
		r.run.Publish(r.progressLocked(aggs, done))
	}
}

// progressLocked snapshots live progress; caller holds the collector's
// lock.
func (r *jobRun) progressLocked(aggs []*kplex.Aggregate, done *kplex.SeedSet) Progress {
	elapsed := time.Since(r.started)
	p := Progress{
		SeedsDone:   done.Len(),
		TotalSeeds:  r.total,
		Checkpoints: int64(r.wal.seq),
		Plexes:      plexes(aggs),
		ElapsedMS:   float64(elapsed) / float64(time.Millisecond),
	}
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
		r.m.cfg.Logf("jobs: %s: checkpoint write failed (retrying next flush): %v", r.run.ID, err)
		return
	}
	ckptSpan.End()
	r.pendingSeeds = nil
	r.lastCkpt = time.Now()
	r.m.counters.Checkpoints.Add(1)

	j := r.run.j
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
