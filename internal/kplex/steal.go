package kplex

// The parallel runtime (Section 6). Each worker owns a bounded deque; it
// pushes and pops at the back (LIFO keeps the current seed subgraph
// cache-hot) while thieves take from the front, where the oldest tasks —
// the roots of the largest remaining subtrees — sit. A thief transfers
// *half* of the victim's deque in one locked operation instead of one task
// per probe, amortising the synchronisation cost and giving the thief a
// private runway before it must steal again.
//
// A worker claims a fresh seed only when its own deque is empty, and no
// worker steals while seeds remain (see workLoop). Every task of a group
// therefore stays with the worker that built it until the seeds run out,
// so at most M seed groups are alive at a time, one per worker, as in the
// paper's stage scheme — without its barrier, so cores never idle waiting
// for the slowest group of a stage to finish.
//
// Combined with the timeout task-splitting path (Options.TaskTimeout), a
// worker that owns a straggler subtree continuously sheds its oldest
// frontier into its deque where any idle worker can grab a batch once the
// seeds are claimed. The deque bound keeps memory proportional to
// threads × 4096 tasks: on overflow the owner simply runs the task inline
// instead of queueing it, which is always safe (the task tree is finite)
// and restores the depth-first memory profile of the sequential run.
//
// The runtime decides only *who* runs a task, never what the task
// computes, so the emitted plex set and count are identical to the
// sequential run's — the differential tests in scheduler_oracle_test.go
// pin this down.

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// defaultQueueBound is the per-worker deque capacity. At a few hundred
// bytes per queued task this bounds queue memory at well under 10 MiB per
// worker.
const defaultQueueBound = 4096

// stealDeque is a mutex-guarded bounded deque owned by one worker. The
// owner pushes and pops at the back; thieves remove batches from the front.
// A mutex (rather than a lock-free Chase-Lev deque) is deliberate: tasks
// here are coarse (one branch-and-bound subtree each), so the lock is cold,
// and steal-half moves are far simpler to get right under a lock.
type stealDeque struct {
	mu    sync.Mutex
	tasks []*task
	bound int
}

func newStealDeque(bound int) *stealDeque {
	return &stealDeque{bound: bound}
}

// push appends t at the back; it reports false when the deque is full, in
// which case the caller must run t itself.
func (d *stealDeque) push(t *task) bool {
	d.mu.Lock()
	if len(d.tasks) >= d.bound {
		d.mu.Unlock()
		return false
	}
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
	return true
}

// popBack removes and returns the newest task, or nil when empty.
func (d *stealDeque) popBack() *task {
	d.mu.Lock()
	n := len(d.tasks)
	if n == 0 {
		d.mu.Unlock()
		return nil
	}
	t := d.tasks[n-1]
	d.tasks[n-1] = nil
	d.tasks = d.tasks[:n-1]
	d.mu.Unlock()
	return t
}

// stealHalf removes the oldest ceil(n/2) tasks (capped at maxTake) and
// appends them to dst, oldest first. The remaining tasks are compacted to
// the front of the backing array so the deque's memory stays bounded.
func (d *stealDeque) stealHalf(dst []*task, maxTake int) []*task {
	d.mu.Lock()
	n := len(d.tasks)
	if n == 0 {
		d.mu.Unlock()
		return dst
	}
	k := (n + 1) / 2
	if k > maxTake {
		k = maxTake
	}
	dst = append(dst, d.tasks[:k]...)
	m := copy(d.tasks, d.tasks[k:])
	for i := m; i < n; i++ {
		d.tasks[i] = nil
	}
	d.tasks = d.tasks[:m]
	d.mu.Unlock()
	return dst
}

// runParallel runs the worker loop on threads goroutines. Termination is
// detected from three monotone conditions read in order: no seed is left
// to claim, no worker is inside a claim (seeding), and no task is queued
// or running (pending). A claim raises pending for every task it queues
// before it lowers seeding, and a running task raises pending for every
// split before it lowers its own, so a worker that reads all three cannot
// miss work still to come.
func (e *engine) runParallel(ctx context.Context, threads int) Stats {
	done := watchContext(ctx, e)
	defer done()

	bound := e.opts.queueBound
	if bound <= 0 {
		bound = defaultQueueBound
	}
	e.deques = make([]*stealDeque, threads)
	workers := make([]*worker, threads)
	for i := range workers {
		e.deques[i] = newStealDeque(bound)
		workers[i] = &worker{id: i, eng: e, splitting: e.opts.TaskTimeout > 0}
	}

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			e.workLoop(w)
		}(w)
	}
	wg.Wait()

	var total Stats
	for _, w := range workers {
		total.Add(w.stats)
	}
	return total
}

// workLoop is the worker loop. A worker prefers (1) its own deque
// back-to-front, then (2) a seed claim — building its own seed subgraph is
// cheaper than dragging someone else's working set across caches — then
// (3) stealing half of a random victim's frontier. A claim fails only once
// every seed is claimed, so (3) never runs while seeds remain.
func (e *engine) workLoop(w *worker) {
	my := e.deques[w.id]
	rng := stealRand(uint64(w.id) + 1)
	var loot []*task
	idleSpins := 0
	for !e.cancelled() {
		if t := my.popBack(); t != nil {
			w.runTask(t)
			e.pending.Add(-1)
			idleSpins = 0
			continue
		}
		if e.claimSeed(w) {
			idleSpins = 0
			continue
		}

		loot = e.trySteal(w, &rng, loot[:0])
		if len(loot) > 0 {
			for _, t := range loot[1:] {
				if !my.push(t) {
					w.runTask(t)
					e.pending.Add(-1)
				}
			}
			w.runTask(loot[0])
			e.pending.Add(-1)
			idleSpins = 0
			continue
		}
		// A failed round only counts as a miss when work was actually in
		// flight somewhere — otherwise the counter would just measure how
		// long the idle spin-wait below lasted.
		if e.pending.Load() > 0 {
			w.stats.StealMisses++
		}

		// Nothing anywhere. The read order matters (see runParallel): the
		// failed claim above, then seeding, then pending.
		if e.seeding.Load() == 0 && e.pending.Load() == 0 {
			return
		}
		idleSpins++
		if idleSpins > 64 {
			time.Sleep(20 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// claimSeed builds and queues the next unclaimed seed group on w, and
// reports false once every seed is claimed. seeding must rise before the
// claim so the termination check cannot miss the tasks this claim is about
// to push. The Load fast path keeps idle spinners off the shared counters
// once seeds are exhausted.
func (e *engine) claimSeed(w *worker) bool {
	n := int64(e.g.N())
	if e.nextSeed.Load() >= n {
		return false
	}
	e.seeding.Add(1)
	s := e.nextSeed.Add(1) - 1
	if s < n {
		e.processSeed(w, int(s), w.enqueue)
	}
	e.seeding.Add(-1)
	return s < n
}

// trySteal probes the other deques in a random rotation and moves half of
// the first non-empty victim's oldest tasks into dst, counting the
// transferred tasks as Steals. The caller scores failed rounds.
func (e *engine) trySteal(w *worker, rng *uint64, dst []*task) []*task {
	nq := len(e.deques)
	if nq < 2 {
		return dst
	}
	my := e.deques[w.id]
	start := int(nextRand(rng) % uint64(nq))
	for i := 0; i < nq; i++ {
		v := (start + i) % nq
		if v == w.id {
			continue
		}
		dst = e.deques[v].stealHalf(dst, my.bound)
		if len(dst) > 0 {
			w.stats.Steals += int64(len(dst))
			return dst
		}
	}
	return dst
}

// pushTask queues a timeout-split task on the worker's own deque.
func (e *engine) pushTask(w *worker, t *task) {
	// Register the split's storage reference before it becomes stealable;
	// the currently running task still holds one, so the group cannot be
	// recycled between this increment and the push.
	t.sg.retain()
	if tr := t.sg.track; tr != nil {
		// Same ordering argument for the seed-completion tracker.
		tr.addTask()
	}
	w.enqueue(t)
}

// enqueue queues t on the worker's own deque, falling back to running it
// inline when the deque is at its bound. The inline path resets the
// task-timeout clock via runTask, so an overflowing straggler keeps making
// progress depth-first rather than hammering the full deque.
//
// pending must rise BEFORE the push makes t stealable: a thief could
// otherwise run t and decrement pending past this task's never-made
// increment, letting the termination check see zero while work is still
// running and sending idle workers home early.
func (w *worker) enqueue(t *task) {
	e := w.eng
	e.pending.Add(1)
	if e.deques[w.id].push(t) {
		return
	}
	w.runTask(t)
	e.pending.Add(-1)
}

// stealRand seeds a splitmix64 stream; distinct worker ids give distinct,
// well-mixed victim rotations without any shared RNG state.
func stealRand(seed uint64) uint64 {
	return seed * 0x9E3779B97F4A7C15
}

// nextRand advances the splitmix64 state and returns the next value.
func nextRand(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
