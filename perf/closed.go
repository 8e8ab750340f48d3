package main

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/obs"
	"repro/internal/store"
)

// The closed-loop workloads: one caller runs cells back to back, each
// after the previous one returned. A cell is one query a user of the
// library would issue, timed end to end through the public functions.

// cell is one unit of closed-loop work.
type cell struct {
	name string
	run  func(traced bool) (cellRun, error)
}

// cellRun is one execution of a cell.
type cellRun struct {
	wall, cpu time.Duration // the query itself; traced-only extras excluded
	scale     float64       // host-speed factor around the run (see calibrate.go)
	heapMiB   float64       // the largest live heap seen during the run
	wrong     string        // how the answer differed from the expected one
	trace     obs.TraceData // traced runs only
	layers    map[string]float64
}

// scaledS is the run's wall time in scaled seconds.
func (c cellRun) scaledS() float64 { return c.wall.Seconds() * c.scale }

// closedResult holds every run of every cell, indexed like the cells.
type closedResult struct {
	untraced, traced      [][]cellRun
	runs, wrong           int
	setupS                float64
	tracedCPU, tracedWall time.Duration
	cal                   *calibration
}

// closedLoop runs passes over cells, each pass in a seeded order, until
// seconds have passed and every cell has run at least once. The
// calibration reference runs between cells, so each run is scaled by the
// host speed just before and just after it. With traced, every cell runs
// untraced and traced back to back, alternating which goes first, so the
// pair sees the same machine state and the difference is the tracing
// overhead.
func closedLoop(cells []cell, cal *calibration, seed int64, seconds float64, traced bool, log io.Writer) (*closedResult, error) {
	rng := rand.New(rand.NewSource(seed))
	res := &closedResult{
		untraced: make([][]cellRun, len(cells)),
		traced:   make([][]cellRun, len(cells)),
		cal:      cal,
	}
	heap := startHeapSampler()
	start := time.Now()
	done := func() bool { return time.Since(start).Seconds() >= seconds }
	before := cal.measure()
	for pass := 0; ; pass++ {
		for _, i := range rng.Perm(len(cells)) {
			order := []bool{false}
			if traced {
				order = []bool{pass%2 == 1, pass%2 == 0}
			}
			for _, tr := range order {
				heap.reset()
				r, err := cells[i].run(tr)
				if err != nil {
					heap.finish()
					return nil, fmt.Errorf("%s: %w", cells[i].name, err)
				}
				r.heapMiB = heap.peakMiB()
				after := cal.measure()
				r.scale, before = scaleFor(before, after), after
				res.runs++
				if r.wrong != "" {
					res.wrong++
					fmt.Fprintf(log, "WRONG %s: %s\n", cells[i].name, r.wrong)
				}
				if tr {
					res.traced[i] = append(res.traced[i], r)
					res.tracedCPU += r.cpu
					res.tracedWall += r.wall
				} else {
					res.untraced[i] = append(res.untraced[i], r)
				}
			}
			if pass > 0 && done() {
				heap.finish()
				return res, nil
			}
		}
		if done() {
			heap.finish()
			return res, nil
		}
	}
}

// perCellMedian is, for each cell, the median of f over its runs.
func perCellMedian(runs [][]cellRun, f func(cellRun) float64) []float64 {
	out := make([]float64, len(runs))
	for i, rs := range runs {
		xs := make([]float64, len(rs))
		for j, r := range rs {
			xs[j] = f(r)
		}
		out[i] = median(xs)
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// passWallS estimates one pass in scaled seconds: the sum over
// cells of each cell's median.
func passWallS(runs [][]cellRun) float64 {
	return sum(perCellMedian(runs, cellRun.scaledS))
}

// cellWeightedMedian is the median scaled time of every run, each run
// weighted by one over its cell's run count, so that every cell counts
// once however many times it ran.
func cellWeightedMedian(runs [][]cellRun) float64 {
	type point struct{ t, w float64 }
	var pts []point
	for _, rs := range runs {
		for _, c := range rs {
			pts = append(pts, point{c.scaledS(), 1 / float64(len(rs))})
		}
	}
	slices.SortFunc(pts, func(a, b point) int { return cmp.Compare(a.t, b.t) })
	half, acc := float64(len(runs))/2, 0.0
	for _, p := range pts {
		if acc += p.w; acc >= half {
			return p.t
		}
	}
	return 0
}

// endToEnd reports a pass as the user sees it: the time and CPU of one
// pass over all cells, each cell weighted once (its median) so a partly
// finished last pass does not shift the mix. For the same reason every
// cell weighs the same in the latencies: p50_ms is cellWeightedMedian,
// and p99_ms is taken over the per-cell medians, the slowest cells (a run
// holds a few dozen queries, too few for a 99th percentile of them).
// Times are in scaled seconds (see calibrate.go). The peak heap is the
// largest per-cell median of the live heap a cell reached: the live heap
// is read at the end of each GC, so whether a collection catches a cell
// at its largest is chance, and the median over its runs takes that
// chance out.
func (r *closedResult) endToEnd() map[string]float64 {
	walls := perCellMedian(r.untraced, cellRun.scaledS)
	cpus := perCellMedian(r.untraced, func(c cellRun) float64 { return c.cpu.Seconds() * c.scale })
	good := 0
	for _, rs := range r.untraced {
		ok := true
		for _, c := range rs {
			ok = ok && c.wrong == ""
		}
		if ok {
			good++
		}
	}
	wall := sum(walls)
	return map[string]float64{
		"setup_s":       r.setupS,
		"wall_s":        wall,
		"cpu_s":         sum(cpus),
		"peak_heap_mib": slices.Max(perCellMedian(r.untraced, func(c cellRun) float64 { return c.heapMiB })),
		"p50_ms":        cellWeightedMedian(r.untraced) * 1000,
		"p99_ms":        quantile(walls, 0.99) * 1000,
		"goodput_rps":   float64(good) / wall,
	}
}

// perLayer sums each layer value over a pass (per-cell medians of the
// traced runs) and derives the ratios from those sums.
func (r *closedResult) perLayer() map[string]float64 {
	m := map[string]float64{}
	for i := range r.traced {
		keys := map[string]bool{}
		for _, c := range r.traced[i] {
			for k := range c.layers {
				keys[k] = true
			}
		}
		for k := range keys {
			m[k] += perCellMedian(r.traced[i:i+1], func(c cellRun) float64 { return c.layers[k] })[0]
		}
	}
	engineRatios(m)
	m["runtime.gc_cpu_frac"] = ratio(m["runtime.gc_cpu_s"], m["runtime.cpu_s"])
	delete(m, "runtime.gc_cpu_s")
	delete(m, "runtime.cpu_s")
	m["process.cpu_util"] = ratio(r.tracedCPU.Seconds(), r.tracedWall.Seconds()*float64(nproc()))
	for _, rs := range r.traced {
		m["loadgen.requests"] += float64(len(rs))
	}
	m["trace.overhead_pct"] = overheadPct(passWallS(r.traced), passWallS(r.untraced))
	r.cal.layers(m)
	return m
}

// traces returns the traced runs' span sets, for the trace file.
func (r *closedResult) traces() []obs.TraceData {
	var out []obs.TraceData
	for _, rs := range r.traced {
		for _, c := range rs {
			out = append(out, c.trace)
		}
	}
	return out
}

// engineRatios adds the useful-outcome ratios of the branch-and-bound.
func engineRatios(m map[string]float64) {
	m["kplex.ub_prune_ratio"] = ratio(m["kplex.ub_pruned"], m["kplex.branches"])
	m["kplex.emitted_per_kbranch"] = ratio(m["kplex.emitted"], m["kplex.branches"]/1000)
}

// engineLayers splits one RunPrepared-family call into its layers.
// Seed build and branch times are summed over threads, so idle time is
// what the threads had left of the call's wall time.
func engineLayers(m map[string]float64, st kplex.Stats, runWall time.Duration, threads int) {
	sb, br := float64(st.SeedBuildNS)/1e6, float64(st.BranchNS)/1e6
	m["kplex.seed_build_ms"] = sb
	m["kplex.branch_ms"] = br
	m["kplex.idle_ms"] = float64(threads)*ms(runWall) - sb - br
	m["kplex.seeds"] = float64(st.Seeds)
	m["kplex.branches"] = float64(st.Branches)
	m["kplex.ub_pruned"] = float64(st.UBPruned)
	m["kplex.r1_pruned"] = float64(st.TasksPrunedR1)
	m["kplex.collapses"] = float64(st.Collapses)
	m["kplex.splits"] = float64(st.Splits)
	m["kplex.dense_builds"] = float64(st.DenseBuilds)
	m["kplex.emitted"] = float64(st.Emitted)
}

func runtimeLayers(m map[string]float64, d rtDelta) {
	m["runtime.alloc_mib"] = d.allocMiB
	m["runtime.gc_cycles"] = d.gcCycles
	m["runtime.gc_cpu_s"] = d.gcCPU
	m["runtime.cpu_s"] = d.totalCPU
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serviceOptions are kplexd's defaults for a query: the paper's
// configuration with the stage scheduler, one thread per CPU and the
// 2 ms straggler-splitting timeout.
func serviceOptions(k, q int) kplex.Options {
	o := kplex.NewOptions(k, q)
	o.Threads = nproc()
	o.Scheduler = kplex.SchedulerStages
	o.TaskTimeout = 2 * time.Millisecond
	return o
}

// effectiveThreads is how many workers RunPrepared starts for p.
func effectiveThreads(p *kplex.Prepared) int {
	return max(1, min(nproc(), p.SeedSpace()))
}

// runMode issues the RunPrepared-family call for a mode.
func runMode(p *kplex.Prepared, o kplex.Options, mode string, topN int) (topk [][]int, hist map[int]int64, res kplex.Result, err error) {
	ctx := context.Background()
	switch mode {
	case "topk":
		topk, res, err = kplex.EnumerateTopKPrepared(ctx, p, o, topN)
	case "histogram":
		hist, res, err = kplex.SizeHistogramPrepared(ctx, p, o)
	default:
		res, err = kplex.RunPrepared(ctx, p, o)
	}
	return topk, hist, res, err
}

// timed runs f inside span name of t and returns its duration.
func timed(t *obs.Trace, name string, f func()) time.Duration {
	sp := t.StartSpan(name)
	start := time.Now()
	f()
	d := time.Since(start)
	sp.End()
	return d
}

// traceData freezes a detached trace for the trace file.
func traceData(t *obs.Trace, name string, start time.Time) obs.TraceData {
	return obs.TraceData{ID: t.ID(), Name: name, Start: start, DurationMS: ms(time.Since(start)), Spans: t.Spans()}
}

// coreSplit times the core decomposition of the prologue on its own:
// the (q-k)-core restriction plus the peel of the core.
func coreSplit(t *obs.Trace, g graph.CSR, k, q int) time.Duration {
	return timed(t, "kplex.core", func() {
		core, _ := graph.KCore(g, q-k)
		graph.Cores(core)
	})
}

// engineCellSpec is one engine_bnb cell.
type engineCellSpec struct {
	graph string
	k, q  int
	mode  string
	topN  int
}

func (c engineCellSpec) String() string {
	m := c.mode
	if c.mode == "topk" {
		m = fmt.Sprintf("topk%d", c.topN)
	}
	return fmt.Sprintf("%s %d/%d %s", c.graph, c.k, c.q, m)
}

// setupEngine builds the suite graphs of the cells and their answers.
func setupEngine(specs []engineCellSpec, exp *expectations) ([]cell, error) {
	graphs := map[string]*graph.Graph{}
	var cells []cell
	for _, c := range specs {
		g := graphs[c.graph]
		if g == nil {
			d, ok := bench.ByName(c.graph)
			if !ok {
				return nil, fmt.Errorf("unknown suite graph %q", c.graph)
			}
			g = d.Build()
			graphs[c.graph] = g
		}
		want, err := exp.get(c.graph, g, c.k, c.q, c.topN)
		if err != nil {
			return nil, err
		}
		cells = append(cells, engineCell(c, g, want))
	}
	return cells, nil
}

func engineCell(c engineCellSpec, g *graph.Graph, want *answer) cell {
	name := c.String()
	return cell{name: name, run: func(traced bool) (cellRun, error) {
		var t *obs.Trace
		if traced {
			t = obs.NewTrace(name)
		}
		o := serviceOptions(c.k, c.q)
		o.PhaseTimers = traced
		rt0, cpu0, start := readRuntime(), processCPU(), time.Now()
		var (
			p               *kplex.Prepared
			topk            [][]int
			hist            map[int]int64
			res             kplex.Result
			prepErr, runErr error
		)
		prologue := timed(t, "kplex.prepare", func() { p, prepErr = kplex.Prepare(g, o) })
		if prepErr != nil {
			return cellRun{}, prepErr
		}
		runWall := timed(t, "kplex.run", func() { topk, hist, res, runErr = runMode(p, o, c.mode, c.topN) })
		if runErr != nil {
			return cellRun{}, runErr
		}
		r := cellRun{
			wall:  time.Since(start),
			cpu:   processCPU() - cpu0,
			wrong: want.check(c.mode, c.topN, res.Count, int(res.Stats.MaxPlexSize), topk, hist),
		}
		if traced {
			rt1 := readRuntime()
			core := coreSplit(t, g, c.k, c.q)
			r.layers = map[string]float64{
				"kplex.prologue_ms": ms(prologue),
				"kplex.core_ms":     ms(core),
				"kplex.relabel_ms":  ms(prologue - core),
			}
			engineLayers(r.layers, res.Stats, runWall, effectiveThreads(p))
			runtimeLayers(r.layers, rt0.to(rt1))
			r.trace = traceData(t, name, start)
		}
		return r, nil
	}}
}

// prologueGraph is one prologue_cold graph with its (k, q) cells. The
// generator seed is fixed: the workload seed reorders cells but never
// changes the graphs, so every seed measures the same work.
type prologueGraph struct {
	name  string
	build func() *graph.Graph
	cells []bench.KQ
}

// setupPrologue writes each graph to a .kpg store file under dir and
// builds its cells, CTCP off and on.
func setupPrologue(graphs []prologueGraph, dir string, exp *expectations) ([]cell, error) {
	var cells []cell
	for _, pg := range graphs {
		g := pg.build()
		path := filepath.Join(dir, pg.name+store.StoreExt)
		if err := store.WriteGraphFile(path, g, 0); err != nil {
			return nil, err
		}
		for _, kq := range pg.cells {
			want, err := exp.get(pg.name, g, kq.K, kq.Q, 0)
			if err != nil {
				return nil, err
			}
			for _, ctcp := range []bool{false, true} {
				cells = append(cells, prologueCell(pg.name, path, kq.K, kq.Q, ctcp, want))
			}
		}
	}
	return cells, nil
}

// prologueCell opens the store file afresh (cold decoded-block cache, warm
// page cache), prepares and counts at strict q. Traced runs then time the
// layers the prologue is made of, each on a fresh reader and outside the
// measured query: a full adjacency decode, CTCP, and the core
// decomposition; the relabel is what Prepare spent beyond those.
func prologueCell(graphName, path string, k, q int, ctcp bool, want *answer) cell {
	name := fmt.Sprintf("%s %d/%d ctcp=%v", graphName, k, q, ctcp)
	return cell{name: name, run: func(traced bool) (cellRun, error) {
		var t *obs.Trace
		if traced {
			t = obs.NewTrace(name)
		}
		o := serviceOptions(k, q)
		o.UseCTCP = ctcp
		o.PhaseTimers = traced
		rt0, cpu0, start := readRuntime(), processCPU(), time.Now()
		var (
			r                        *store.Reader
			p                        *kplex.Prepared
			res                      kplex.Result
			openErr, prepErr, runErr error
		)
		open := timed(t, "store.open", func() { r, openErr = store.OpenFile(path) })
		if openErr != nil {
			return cellRun{}, openErr
		}
		prologue := timed(t, "kplex.prepare", func() { p, prepErr = kplex.Prepare(r, o) })
		var runWall time.Duration
		if prepErr == nil {
			runWall = timed(t, "kplex.run", func() { _, _, res, runErr = runMode(p, o, "count", 0) })
		}
		if err := r.Close(); err != nil {
			return cellRun{}, err
		}
		if prepErr != nil || runErr != nil {
			return cellRun{}, fmt.Errorf("prepare: %v, run: %v", prepErr, runErr)
		}
		run := cellRun{
			wall:  time.Since(start),
			cpu:   processCPU() - cpu0,
			wrong: want.check("count", 0, res.Count, int(res.Stats.MaxPlexSize), nil, nil),
		}
		if !traced {
			return run, nil
		}
		rt1 := readRuntime()
		decode, ctcpD, core, err := prologueSplit(t, path, k, q, ctcp)
		if err != nil {
			return cellRun{}, err
		}
		run.layers = map[string]float64{
			"store.open_ms":     ms(open),
			"store.decode_ms":   ms(decode),
			"kplex.prologue_ms": ms(prologue),
			"kplex.ctcp_ms":     ms(ctcpD),
			"kplex.core_ms":     ms(core),
			"kplex.relabel_ms":  ms(prologue - ctcpD - core),
		}
		engineLayers(run.layers, res.Stats, runWall, effectiveThreads(p))
		runtimeLayers(run.layers, rt0.to(rt1))
		run.trace = traceData(t, name, start)
		return run, nil
	}}
}

// prologueSplit times a full Neighbors sweep, CTCP (when on) and the core
// decomposition, each starting from a fresh reader as Prepare does.
func prologueSplit(t *obs.Trace, path string, k, q int, ctcp bool) (decode, ctcpD, core time.Duration, err error) {
	fresh := func() (*store.Reader, error) { return store.OpenFile(path) }
	r, err := fresh()
	if err != nil {
		return 0, 0, 0, err
	}
	decode = timed(t, "store.decode", func() {
		for v := 0; v < r.N(); v++ {
			r.Neighbors(v)
		}
	})
	r.Close() //nolint:errcheck // read-only mapping
	if r, err = fresh(); err != nil {
		return 0, 0, 0, err
	}
	defer r.Close()
	var work graph.CSR = r
	if ctcp {
		ctcpD = timed(t, "kplex.ctcp", func() { work = kplex.ReduceCTCP(r, k, q) })
	}
	return decode, ctcpD, coreSplit(t, work, k, q), nil
}

// prologueGraphsFor is the prologue_cold graph set of one scale.
func prologueGraphsFor(smoke bool) []prologueGraph {
	if smoke {
		return []prologueGraph{
			{"ba-3k", func() *graph.Graph { return gen.BarabasiAlbert(3000, 6, 21) }, []bench.KQ{{K: 2, Q: 8}}},
			{"chunglu-4k", func() *graph.Graph { return gen.ChungLu(4000, 10, 2.3, 22) }, []bench.KQ{{K: 3, Q: 20}}},
			{"planted-3k", func() *graph.Graph {
				return gen.Planted(gen.PlantedConfig{N: 3000, BackgroundP: 0.001, Communities: 30, CommSize: 12, DropPerV: 1, Overlap: 2, Seed: 23})
			}, []bench.KQ{{K: 2, Q: 10}}},
		}
	}
	return []prologueGraph{
		{"ba-100k", func() *graph.Graph { return gen.BarabasiAlbert(100000, 8, 21) }, []bench.KQ{{K: 2, Q: 10}, {K: 2, Q: 12}}},
		{"chunglu-150k", func() *graph.Graph { return gen.ChungLu(150000, 12, 2.3, 22) }, []bench.KQ{{K: 3, Q: 80}}},
		{"planted-100k", func() *graph.Graph {
			return gen.Planted(gen.PlantedConfig{N: 100000, BackgroundP: 4e-5, Communities: 1000, CommSize: 20, DropPerV: 1, Overlap: 2, Seed: 23})
		}, []bench.KQ{{K: 2, Q: 16}, {K: 3, Q: 18}}},
	}
}

// engineCellsFor is the engine_bnb cell list of one scale: branch-heavy
// cells of the suite, where branch-and-bound does nearly all the work.
func engineCellsFor(smoke bool) []engineCellSpec {
	if smoke {
		return []engineCellSpec{
			{"jazz-syn", 2, 6, "count", 0},
			{"lastfm-syn", 2, 8, "topk", 10},
			{"dblp-syn", 3, 8, "histogram", 0},
		}
	}
	return []engineCellSpec{
		{"jazz-syn", 3, 7, "count", 0},
		{"wiki-vote-syn", 3, 28, "topk", 10},
		{"epinions-syn", 2, 20, "histogram", 0},
		{"slashdot-syn", 4, 34, "count", 0},
		{"email-syn", 3, 12, "count", 0},
		{"skitter-syn", 3, 28, "count", 0},
		{"enwiki-syn", 3, 64, "count", 0},
		{"arabic-syn", 2, 8, "histogram", 0},
		{"it-syn", 2, 25, "topk", 10},
		{"webbase-syn", 2, 20, "count", 0},
		{"straggler-syn", 3, 10, "count", 0},
	}
}
