package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/kplex"
	"repro/internal/obs"
)

// The dispatcher is one job's scheduling loop: it holds the range board
// (pending / leased / done), hands ranges to idle workers, watches leases
// for progress, reassigns lost ones, and steals stragglers. It is the
// distributed analogue of the engine's SchedulerSteal — ranges are the
// tasks, workers are the deques, and the first completion of a range
// wins.

type rangeStatus uint8

const (
	rangePending rangeStatus = iota
	rangeLeased
	rangeDone
)

// lease is one attempt at one range on one worker.
type lease struct {
	rid     int
	w       *workerState
	started time.Time
	stolen  bool
	cancel  context.CancelFunc
	expired atomic.Bool // set by the watchdog before cancelling
	seeds   int         // live progress, guarded by the dispatcher's mutex
}

type dispatcher struct {
	c      *Coordinator
	j      *djob
	req    RangeRequest // template; Lo/Hi filled per lease
	ranges []Range
	wal    *jobs.Log

	mu        sync.Mutex
	cond      *sync.Cond
	status    []rangeStatus
	leases    map[int][]*lease
	attempts  []int // reassignments per range; the initial lease is free
	pending   []int // FIFO of pending range ids
	aggs      []*kplex.Aggregate
	doneCount int
	inflight  int // lease goroutines not yet retired
	fatal     error

	baseEnumMS float64 // from resumed checkpoints
	started    time.Time
	lastPub    time.Time
	reassigned int64
	stolen     int64

	// trace is the job's stitched trace (nil when untraced): runLease
	// records one span per lease attempt and grafts the worker-side spans
	// shipped back on each Done line. Trace methods are internally
	// synchronised, so lease goroutines use it without d.mu.
	trace *obs.Trace
}

func newDispatcher(c *Coordinator, j *djob, spec *Spec, digest string, total int, ranges []Range, rep *rangeReplay, w *jobs.Log) *dispatcher {
	d := &dispatcher{
		c: c, j: j,
		req: RangeRequest{
			Graph: spec.Graph, Digest: digest, TotalSeeds: total,
			K: spec.K, Q: spec.Q, TopN: spec.TopN,
			Threads: spec.Threads, Scheduler: spec.Scheduler,
		},
		ranges:     ranges,
		wal:        w,
		status:     make([]rangeStatus, len(ranges)),
		leases:     make(map[int][]*lease),
		attempts:   make([]int, len(ranges)),
		aggs:       make([]*kplex.Aggregate, len(ranges)),
		baseEnumMS: rep.enumMS,
	}
	d.cond = sync.NewCond(&d.mu)
	for rid := range ranges {
		if agg, ok := rep.aggs[rid]; ok {
			d.status[rid] = rangeDone
			d.aggs[rid] = agg
			d.doneCount++
		} else {
			d.pending = append(d.pending, rid)
		}
	}
	return d
}

// wake nudges the scheduling loop (new worker registered, ticker, ctx).
func (d *dispatcher) wake() { d.cond.Broadcast() }

// enumMS is the job's cumulative distributed wall-clock.
func (d *dispatcher) enumMS() float64 {
	if d.started.IsZero() {
		return d.baseEnumMS
	}
	return d.baseEnumMS + float64(time.Since(d.started))/float64(time.Millisecond)
}

// run drives the job to completion: returns nil once every range is done,
// the fatal error once a range exhausts its attempts, or the cancellation
// cause on interruption — always after every in-flight lease goroutine
// has retired.
func (d *dispatcher) run(ctx context.Context) error {
	d.mu.Lock()
	d.started = time.Now()
	d.mu.Unlock()

	// The waker turns time into scheduling rounds: backoff gates expiring
	// and StealAfter thresholds crossing are not events the loop can block
	// on, so tick coarsely; ctx cancellation is forwarded immediately.
	tickDone := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		cancelled := ctx.Done()
		for {
			select {
			case <-t.C:
				d.wake()
			case <-cancelled:
				d.wake()
				cancelled = nil // forward once; the ticker keeps nudging while leases drain
			case <-tickDone:
				return
			}
		}
	}()
	defer func() {
		close(tickDone)
		tickWG.Wait()
	}()

	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.doneCount == len(d.ranges) && d.inflight == 0 {
			// Success even under a late cancel: the work is already done.
			d.publishLocked(true)
			return nil
		}
		if d.fatal == nil && ctx.Err() == nil && d.doneCount < len(d.ranges) {
			if d.startLeaseLocked(ctx) {
				continue
			}
		}
		if d.inflight == 0 {
			if d.fatal != nil {
				return d.fatal
			}
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
		}
		d.cond.Wait()
	}
}

// startLeaseLocked tries to pair an idle worker with a leasable range and
// launch the lease goroutine. Reports whether one was started.
func (d *dispatcher) startLeaseLocked(ctx context.Context) bool {
	w := d.c.reserveWorker()
	if w == nil {
		return false
	}
	var rid int
	stolen := false
	if len(d.pending) > 0 {
		rid = d.pending[0]
		d.pending = d.pending[1:]
		d.status[rid] = rangeLeased
	} else {
		// Nothing pending: steal. Re-lease the oldest single-lease range
		// whose lease has been out past StealAfter and is not already on
		// this worker — the distributed answer to a straggler pinning the
		// job's tail latency.
		var victim *lease
		for vrid, ls := range d.leases {
			if d.status[vrid] != rangeLeased || len(ls) != 1 {
				continue
			}
			l := ls[0]
			if l.w == w || time.Since(l.started) < d.c.cfg.StealAfter {
				continue
			}
			if victim == nil || l.started.Before(victim.started) {
				victim = l
			}
		}
		if victim == nil {
			d.c.freeWorker(w, false, false)
			return false
		}
		rid = victim.rid
		stolen = true
		d.stolen++
		d.c.counters.Stolen.Add(1)
	}
	l := &lease{rid: rid, w: w, started: time.Now(), stolen: stolen}
	d.leases[rid] = append(d.leases[rid], l)
	d.inflight++
	go d.runLease(ctx, l)
	return true
}

// runLease executes one lease: posts the range to the worker, feeds the
// no-progress watchdog from its progress lines, and routes the outcome to
// complete or fail. Runs without the dispatcher's mutex.
func (d *dispatcher) runLease(ctx context.Context, l *lease) {
	lctx, cancel := context.WithCancel(ctx)
	l.cancel = cancel
	defer cancel()
	watchdog := time.AfterFunc(d.c.cfg.LeaseTimeout, func() {
		l.expired.Store(true)
		cancel()
	})
	req := d.req
	req.Lo, req.Hi = d.ranges[l.rid].Lo, d.ranges[l.rid].Hi
	span := d.trace.StartSpan("lease").
		Attr("range", fmt.Sprintf("[%d,%d)", req.Lo, req.Hi)).
		Attr("worker", l.w.url)
	if l.stolen {
		span.Attr("stolen", "true")
	}
	agg, spans, err := callRange(lctx, d.c.client, l.w.url, &req, obs.Traceparent(d.trace.ID()), func(n int) {
		watchdog.Reset(d.c.cfg.LeaseTimeout)
		d.noteProgress(l, n)
	})
	watchdog.Stop()
	if err == nil {
		// Tag the worker's spans with their origin before grafting; the
		// worker does not know the URL the coordinator reached it under.
		for i := range spans {
			if spans[i].Attrs == nil {
				spans[i].Attrs = make(map[string]string, 1)
			}
			spans[i].Attrs["worker"] = l.w.url
		}
		d.trace.AddSpans(spans)
		span.End()
		if d.c.cfg.ObserveLease != nil {
			d.c.cfg.ObserveLease(time.Since(l.started))
		}
		d.complete(l, agg)
	} else {
		span.EndErr(err)
		d.fail(ctx, l, err)
	}
}

// noteProgress records a lease's live seed count and republishes the
// job's progress, throttled.
func (d *dispatcher) noteProgress(l *lease, seeds int) {
	d.mu.Lock()
	if seeds > l.seeds {
		l.seeds = seeds
	}
	d.publishLocked(false)
	d.mu.Unlock()
}

// complete commits one lease's finished range: first completion wins and
// is checkpointed; a duplicate (the loser of a speculation race, or a
// worker whose cancelled stream still delivered) is dropped idempotently,
// so every range is merged exactly once.
func (d *dispatcher) complete(l *lease, agg *kplex.Aggregate) {
	d.mu.Lock()
	d.dropLeaseLocked(l)
	d.c.freeWorker(l.w, true, false)
	if d.status[l.rid] == rangeDone {
		d.c.counters.DoubleReports.Add(1)
		d.retireLocked()
		d.mu.Unlock()
		return
	}
	d.status[l.rid] = rangeDone
	d.aggs[l.rid] = agg
	d.doneCount++
	d.c.counters.RangesDone.Add(1)
	rec := &rangeRecord{Range: l.rid, Agg: agg.Snapshot(), EnumMS: d.enumMS()}
	if err := d.wal.Append(rec); err != nil {
		// Not fatal: the range result is in memory and the job can finish;
		// only a restart would re-run this range.
		d.c.cfg.Logf("cluster: %s: range %d checkpoint failed (a restart would re-run it): %v", d.j.man.ID, l.rid, err)
	}
	// Cancel the speculation losers still running this range.
	for _, sib := range d.leases[l.rid] {
		if sib.cancel != nil {
			sib.cancel()
		}
	}
	done, enumMS := d.doneCount, d.enumMS()
	d.publishLocked(true)
	d.retireLocked()
	d.mu.Unlock()
	d.j.noteRangeDone(done, enumMS, d.c.cfg.Logf)
}

// fail retires a lost lease. If the range has no other lease in flight it
// returns to the pending queue (a reassignment); a range that keeps
// losing leases eventually fails the whole job.
func (d *dispatcher) fail(ctx context.Context, l *lease, err error) {
	shutdown := ctx.Err() != nil
	d.mu.Lock()
	d.dropLeaseLocked(l)
	rangeDead := d.status[l.rid] == rangeLeased && len(d.leases[l.rid]) == 0
	// Losing to a sibling's completion or to a job-level cancel is not the
	// worker's fault; a broken stream, refusal, or watchdog expiry is.
	blame := d.status[l.rid] != rangeDone && !shutdown
	d.c.freeWorker(l.w, false, blame)
	if rangeDead && !shutdown {
		d.status[l.rid] = rangePending
		d.pending = append(d.pending, l.rid)
		d.attempts[l.rid]++
		d.reassigned++
		d.c.counters.Reassigned.Add(1)
		if l.expired.Load() {
			d.c.counters.Expired.Add(1)
		}
		d.c.cfg.Logf("cluster: %s: lease on range %d [%d, %d) lost (worker %s, %d seeds in, attempt %d): %v",
			d.j.man.ID, l.rid, d.ranges[l.rid].Lo, d.ranges[l.rid].Hi, l.w.url, l.seeds, d.attempts[l.rid], err)
		if d.attempts[l.rid] >= d.c.cfg.MaxRangeAttempts && d.fatal == nil {
			d.fatal = fmt.Errorf("cluster: range %d [%d, %d) lost %d leases; last error: %w",
				l.rid, d.ranges[l.rid].Lo, d.ranges[l.rid].Hi, d.attempts[l.rid], err)
		}
		d.publishLocked(true)
	}
	if rangeDead && shutdown {
		d.status[l.rid] = rangePending // bookkeeping only; the run is exiting
	}
	d.retireLocked()
	d.mu.Unlock()
}

// dropLeaseLocked removes l from its range's lease list.
func (d *dispatcher) dropLeaseLocked(l *lease) {
	ls := d.leases[l.rid]
	for i, have := range ls {
		if have == l {
			d.leases[l.rid] = append(ls[:i], ls[i+1:]...)
			break
		}
	}
	if len(d.leases[l.rid]) == 0 {
		delete(d.leases, l.rid)
	}
}

// retireLocked retires one lease goroutine and wakes the scheduler.
func (d *dispatcher) retireLocked() {
	d.inflight--
	d.cond.Broadcast()
}

// publishLocked pushes the job's live progress to subscribers, throttled
// unless force.
func (d *dispatcher) publishLocked(force bool) {
	now := time.Now()
	if !force && now.Sub(d.lastPub) < 150*time.Millisecond {
		return
	}
	d.lastPub = now
	seeds := 0
	leased := 0
	for rid, r := range d.ranges {
		switch d.status[rid] {
		case rangeDone:
			seeds += r.Hi - r.Lo
		case rangeLeased:
			leased++
			best := 0
			for _, l := range d.leases[rid] {
				if l.seeds > best {
					best = l.seeds
				}
			}
			seeds += best
		}
	}
	p := Progress{
		State:       jobs.StateRunning,
		RangesDone:  d.doneCount,
		RangesTotal: len(d.ranges),
		SeedsDone:   seeds,
		TotalSeeds:  d.req.TotalSeeds,
		Leased:      leased,
		Reassigned:  d.reassigned,
		Stolen:      d.stolen,
		ElapsedMS:   d.enumMS(),
	}
	// Inline delivery: the djob lock is cheap, is never held while calling
	// into the dispatcher, and keeping it synchronous keeps progress
	// updates ordered.
	d.j.publish(p)
}
