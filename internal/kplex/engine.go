package kplex

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// engine drives one enumeration run over a prepared (CTCP-reduced,
// (q-k)-core-restricted, degeneracy-relabelled) view of the input graph.
type engine struct {
	opts    Options
	g       *graph.Graph    // relabelled working graph
	prep    *graph.Prepared // nil only in narrow unit tests
	toInput []int32         // relabelled id -> input graph id

	// sgPool recycles seedStorage between groups: a group's storage is
	// returned the moment its last task retires, so the steady-state seed
	// pipeline performs no heap allocation at all.
	sgPool sync.Pool

	deques  []*stealDeque // one per worker; nil on the sequential path
	pending atomic.Int64  // tasks pushed but not yet finished
	seeding atomic.Int64  // workers inside a seed claim (see runParallel)
	stop    atomic.Bool
	// extStop, when non-nil, is an additional stop flag owned by the
	// caller (Options.earlyStop). Unlike context cancellation, which is
	// mirrored into stop by a watcher goroutine, a store to extStop is
	// observed synchronously by the very next cancellation check — the
	// batch layer's top-k saturation uses it so a deterministic sequential
	// walk stops before the next seed rather than a scheduling quantum
	// later.
	extStop *atomic.Bool
}

func (e *engine) cancelled() bool {
	return e.stop.Load() || (e.extStop != nil && e.extStop.Load())
}

// getStorage takes a recycled seedStorage from the pool (or a fresh one).
func (e *engine) getStorage() *seedStorage {
	if st, ok := e.sgPool.Get().(*seedStorage); ok {
		return st
	}
	return &seedStorage{}
}

// releaseSeed drops one reference to the group and recycles its storage
// once no task references it any more.
func (e *engine) releaseSeed(sg *seedGraph) {
	if sg.release() {
		e.sgPool.Put(sg.store)
	}
}

// Run enumerates all maximal k-plexes of g with at least opts.Q vertices.
// See Options for the knobs; the returned Result carries the count and the
// search statistics. The context cancels the run early (the partial count
// is returned along with ctx.Err()).
//
// Run is a thin wrapper over Prepare + RunPrepared. Callers issuing many
// runs over one graph (a query service, a resumable job) should Prepare
// once and reuse the handle, which skips the O(n+m) prologue on every run
// after the first.
func Run(ctx context.Context, g graph.CSR, opts Options) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	// A context that is already dead must not start any work — not even
	// the prologue, which is a full O(n+m) pass on its own.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	p, err := Prepare(g, opts)
	if err != nil {
		return Result{}, err
	}
	return RunPrepared(ctx, p, opts)
}

// processSeed builds and enumerates one seed group on worker w, honouring
// the resume skip set and the seed-completion hooks; emit receives the
// generated tasks (schedulers queue them, the sequential path runs them
// inline). It is the single choke point the sequential and parallel run
// paths share, so skip and checkpoint semantics cannot drift between
// schedulers. It reports whether it built a group, which then emitted at
// least one task; skipped seeds and seeds pruned before any task existed
// report false.
func (e *engine) processSeed(w *worker, s int, emit func(*task)) bool {
	if e.skipSeed(s) {
		return false
	}
	if w.sc == nil {
		w.sc = newSeedScratch(e.g.N())
	}
	st := e.getStorage()
	var buildStart time.Time
	if e.opts.PhaseTimers {
		buildStart = time.Now()
	}
	sg := w.sc.build(e.g, e.prep, s, &e.opts, st, &w.stats)
	if e.opts.PhaseTimers {
		w.stats.SeedBuildNS += time.Since(buildStart).Nanoseconds()
	}
	if sg == nil {
		// Pruned before any task existed: the group is trivially complete
		// and its untouched storage goes straight back to the pool.
		e.sgPool.Put(st)
		e.seedDoneEmpty(s)
		return false
	}
	if e.opts.OnSeedDone != nil {
		// One outstanding unit for the generation phase; emitted tasks add
		// theirs inside generateTasks before they become stealable.
		sg.track = &seedTracker{seed: s, outstanding: 1}
	}
	w.stats.Seeds++
	e.generateTasks(w, sg, emit)
	if sg.track != nil {
		w.settleRelease(sg.track)
	}
	e.releaseSeed(sg) // the generation phase's reference
	return true
}

// runSequential processes every seed group in order on the calling
// goroutine, executing tasks as they are generated.
func (e *engine) runSequential(ctx context.Context) Stats {
	w := &worker{eng: e}
	done := watchContext(ctx, e)
	defer done()
	for s := 0; s < e.g.N(); s++ {
		if e.cancelled() {
			break
		}
		e.processSeed(w, s, func(t *task) { w.runTask(t) })
	}
	return w.stats
}

// watchContext mirrors ctx cancellation into the engine's stop flag without
// polluting the hot path with channel operations. The returned func must be
// called to release the watcher goroutine.
func watchContext(ctx context.Context, e *engine) (cleanup func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	// Synchronous fast path: if ctx is already cancelled, set the flag
	// before any worker starts instead of racing the watcher goroutine.
	if ctx.Err() != nil {
		e.stop.Store(true)
		return func() {}
	}
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			e.stop.Store(true)
		case <-stop:
		}
	}()
	return func() { close(stop) }
}

// generateTasks performs Algorithm 2 lines 7-10 for one seed group: the
// set-enumeration of S ⊆ N²_{G_i}(v_i) with |S| ≤ k-1, applying pair rule
// R2 to the enumeration frontier (Theorem 5.13) and to C_S (Theorem 5.14),
// and the sub-task bound R1 (Theorem 5.7).
func (e *engine) generateTasks(w *worker, sg *seedGraph, emit func(*task)) {
	k, q := e.opts.K, e.opts.Q
	w.prepare(sg)
	// Each initial task holds one reference to the group's pooled storage
	// (and, when the seed-completion hook is on, one unit of the tracker's
	// outstanding work), registered before the scheduler's emit can make it
	// stealable.
	inner := emit
	emit = func(t *task) {
		sg.retain()
		if sg.track != nil {
			sg.track.addTask()
		}
		inner(t)
	}

	if e.opts.Partition == PartitionWhole2Hop {
		// FP-style: a single task whose candidates are the whole later
		// 2-hop neighbourhood; only earlier vertices are exclusive.
		P0 := bitset.New(sg.nAll)
		P0.Add(0)
		C0 := sg.nbrSeed.Clone()
		C0.Or(sg.hop2Set)
		emit(&task{sg: sg, P: P0, C: C0, X: sg.xBase.Clone(), sizeP: 1})
		return
	}

	// S = ∅ task.
	P0 := bitset.New(sg.nAll)
	P0.Add(0)
	C0 := sg.nbrSeed.Clone()
	X0 := sg.xBase.Clone()
	X0.Or(sg.hop2Set)
	emit(&task{sg: sg, P: P0, C: C0, X: X0, sizeP: 1})

	if k < 2 || len(sg.hop2) == 0 {
		return
	}

	// Recursive set-enumeration over the N² pool in ascending local id.
	// state per level: S (local ids), CS (candidate set after R2), allowed
	// (N² vertices that may still extend S, after R2).
	var sBuf []int
	var rec func(startIdx int, CS, allowed *bitset.Set)
	rec = func(startIdx int, CS, allowed *bitset.Set) {
		for idx := startIdx; idx < len(sg.hop2); idx++ {
			// A stopped run abandons the rest of the enumeration: tasks
			// beyond a full deque run inline, and a small one may never
			// reach branch's cancellation poll. The tracker's generation
			// unit is then released under the stop flag, so the truncated
			// group is never reported done.
			if e.cancelled() {
				return
			}
			u := sg.hop2[idx]
			if !allowed.Contains(u) {
				continue
			}
			// P_S ∪ {u} must itself be a k-plex (hereditary: otherwise the
			// whole subtree is dead). d̄ within {v_i} ∪ S ∪ {u}: every
			// member counts itself and v_i (non-adjacent to all of N²).
			sBuf = append(sBuf, u)
			if !validSeedSet(sg, sBuf, k) {
				sBuf = sBuf[:len(sBuf)-1]
				continue
			}

			CSu := CS.Clone()
			allowedU := allowed.Clone()
			if sg.pair != nil {
				CSu.And(sg.pair[u])      // Theorem 5.14 via T
				allowedU.And(sg.pair[u]) // Theorem 5.13 via T
			}

			P := bitset.New(sg.nAll)
			P.Add(0)
			for _, v := range sBuf {
				P.Add(v)
			}
			sizeP := 1 + len(sBuf)

			pruned := false
			if e.opts.UseSubtaskBound {
				// R1 needs d_P over P ∪ C; P is tiny, so compute directly.
				degP := w.degP
				P.ForEach(func(v int) { degP[v] = sg.adj[v].IntersectionCount(P) })
				CSu.ForEach(func(v int) { degP[v] = sg.adj[v].IntersectionCount(P) })
				if w.bs.subtaskBound(sg, k, sizeP, P, CSu, degP) < q {
					w.stats.TasksPrunedR1++
					pruned = true
				}
			}
			if !pruned {
				X := sg.xBase.Clone()
				X.Or(sg.hop2Set)
				for _, v := range sBuf {
					X.Remove(v)
				}
				emit(&task{sg: sg, P: P, C: CSu.Clone(), X: X, sizeP: sizeP})
			}

			if len(sBuf) < k-1 {
				rec(idx+1, CSu, allowedU)
			}
			sBuf = sBuf[:len(sBuf)-1]
		}
	}
	rec(0, sg.nbrSeed.Clone(), sg.hop2Set.Clone())
}

// validSeedSet reports whether {v_i} ∪ S is a k-plex. Every member of S is
// non-adjacent to v_i (it is 2 hops away), so v_i's deficiency is 1+|S| and
// each s ∈ S starts at 2 (itself plus v_i) plus its non-neighbours in S.
func validSeedSet(sg *seedGraph, S []int, k int) bool {
	if 1+len(S) > k {
		return false
	}
	for i, u := range S {
		non := 2 // u itself and the seed
		for j, v := range S {
			if i != j && !sg.adj[u].Contains(v) {
				non++
			}
		}
		if non > k {
			return false
		}
	}
	return true
}
