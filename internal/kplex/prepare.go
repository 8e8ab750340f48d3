package kplex

// The prepared-graph layer. Every enumeration run begins with the same
// O(n+m) prologue — the optional CTCP reduction, the (q-k)-core
// restriction (Theorem 3.5) and the degeneracy relabelling — and the
// result depends only on the graph content and the result-defining options
// (K, Q, UseCTCP). Prepare computes that prologue once into an immutable
// handle; RunPrepared (and the streaming / top-k / histogram variants)
// enumerate against the handle, so a service answering repeated queries
// over resident graphs pays the prologue once per (graph, K, Q, UseCTCP)
// cell instead of once per query. Run, RunStream, SeedSpace and friends
// are thin wrappers over this layer, which is what guarantees checkpoint
// seed ids can never drift between the one-shot and the prepared paths.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/graph"
)

// Prepared is the reusable prologue of an enumeration run: the reduced,
// degeneracy-relabelled working graph together with the options cell it
// was built for. A handle is immutable and safe for concurrent use by any
// number of runs. Obtain one with Prepare.
type Prepared struct {
	k       int
	q       int
	useCTCP bool
	pg      *graph.Prepared

	// Cost-model summary, computed lazily (see CostFeatures).
	costOnce sync.Once
	costF    CostFeatures
}

// Prepare computes the run prologue for g under opts. Only the
// result-defining reduction options matter (K, Q, UseCTCP); execution
// knobs may differ freely between the runs that later share the handle.
func Prepare(g graph.CSR, opts Options) (*Prepared, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	work := g
	if opts.UseCTCP {
		work = ReduceCTCP(g, opts.K, opts.Q)
	}
	return &Prepared{
		k:       opts.K,
		q:       opts.Q,
		useCTCP: opts.UseCTCP,
		pg:      graph.Prepare(work, opts.Q-opts.K),
	}, nil
}

// SeedSpace returns the number of seed subproblems a run over this handle
// decomposes into. Seed ids reported by Options.OnSeedDone and accepted by
// Options.SkipSeeds lie in [0, SeedSpace()).
func (p *Prepared) SeedSpace() int { return p.pg.N() }

// K returns the k the handle was prepared for.
func (p *Prepared) K() int { return p.k }

// Q returns the q the handle was prepared for.
func (p *Prepared) Q() int { return p.q }

// UseCTCP reports whether the handle includes the CTCP reduction.
func (p *Prepared) UseCTCP() bool { return p.useCTCP }

// compatible rejects run options whose reduction cell differs from the one
// the handle was prepared for — running them would silently enumerate a
// different decomposition (and corrupt any seed-id checkpoints).
func (p *Prepared) compatible(o *Options) error {
	if o.K != p.k || o.Q != p.q || o.UseCTCP != p.useCTCP {
		return fmt.Errorf("kplex: prepared for K=%d Q=%d UseCTCP=%v but run options say K=%d Q=%d UseCTCP=%v; Prepare a matching handle",
			p.k, p.q, p.useCTCP, o.K, o.Q, o.UseCTCP)
	}
	return nil
}

// RunPrepared enumerates all maximal k-plexes with at least opts.Q
// vertices against a prepared handle, skipping the run prologue entirely.
// opts must match the handle's K, Q and UseCTCP; everything else (threads,
// scheduler, bounds, hooks, skip sets) is free to vary per run.
func RunPrepared(ctx context.Context, p *Prepared, opts Options) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	if err := p.compatible(&opts); err != nil {
		return Result{}, err
	}
	// A context that is already dead must not start the run at all: the
	// watcher flips the stop flag asynchronously, which would let an
	// arbitrary prefix of the enumeration execute before the first poll.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	start := time.Now()

	relab := p.pg.G()
	if m := opts.SkipSeeds.Max(); m >= relab.N() {
		return Result{}, fmt.Errorf("kplex: SkipSeeds contains seed %d but this run has only %d seed groups (was the checkpoint written against a different graph or different K/Q/UseCTCP?)", m, relab.N())
	}

	e := &engine{opts: opts, g: relab, prep: p.pg, toInput: p.pg.ToInputIDs(), extStop: opts.earlyStop}
	threads := opts.Threads
	if threads < 1 {
		threads = 1
	}
	if threads > relab.N() && relab.N() > 0 {
		threads = relab.N()
	}
	if threads < 1 {
		threads = 1
	}

	var stats Stats
	if threads == 1 && opts.TaskTimeout == 0 {
		stats = e.runSequential(ctx)
	} else {
		stats = e.runParallel(ctx, threads)
	}

	res := Result{Count: stats.Emitted, Stats: stats, Elapsed: time.Since(start)}
	if ctx != nil && ctx.Err() != nil {
		return res, ctx.Err()
	}
	return res, nil
}
