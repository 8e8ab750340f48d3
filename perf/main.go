// Command perf is the repository's performance ledger: one benchmark that
// drives the k-plex stack from outside through its public functions — the
// store, the prologue, the engine, and an in-process kplexd under an
// open-loop load — checks every answer, and prints one JSON result line.
//
//	go run . -workload engine_bnb -seed 1 -seconds 30 -trace 0 -out out/r.json
//
// The last line of standard output is {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with -trace 0, the per-layer metrics
// of a traced rerun with -trace 1. The full record, with the host block,
// goes to -out. README.md describes the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// A run sets its workload up at least minSetups times, and keeps going
// (up to maxSetups) while the total stays under setupBudget; setup_s is
// the median, since one short set-up would be mostly noise.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
)

// timeSetup runs setup as above, with the calibration reference before
// and after each, and returns the median duration in scaled seconds.
func timeSetup(cal *calibration, setup func(i int) error) (float64, error) {
	var times []float64
	var total time.Duration
	before := cal.measure()
	for i := 0; i < maxSetups && (i < minSetups || total < setupBudget); i++ {
		start := time.Now()
		if err := setup(i); err != nil {
			return 0, err
		}
		d := time.Since(start)
		after := cal.measure()
		times = append(times, d.Seconds()*scaleFor(before, after))
		total += d
		before = after
	}
	return median(times), nil
}

// runConfig is what a workload run needs to know.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	smoke   bool
	outDir  string
	exp     *expectations
	cal     *calibration
	log     io.Writer
}

// outcome is one workload run.
type outcome struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	traces            []obs.TraceData // traced runs only
	config            map[string]any
}

type workload struct {
	name string
	run  func(c *runConfig) (*outcome, error)
}

var workloads = []workload{
	{"engine_bnb", func(c *runConfig) (*outcome, error) {
		return runClosed(c, func(string) ([]cell, error) { return setupEngine(engineCellsFor(c.smoke), c.exp) })
	}},
	{"prologue_cold", func(c *runConfig) (*outcome, error) {
		return runClosed(c, func(dir string) ([]cell, error) { return setupPrologue(prologueGraphsFor(c.smoke), dir, c.exp) })
	}},
	{"serve", runServe},
}

// runClosed sets a closed-loop workload up (see timeSetup) and runs the
// last set-up.
func runClosed(c *runConfig, setup func(dir string) ([]cell, error)) (*outcome, error) {
	dir, err := workDir(c.outDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var cells []cell
	setupS, err := timeSetup(c.cal, func(int) (err error) {
		cells, err = setup(dir)
		return err
	})
	if err != nil {
		return nil, err
	}
	res, err := closedLoop(cells, c.cal, c.seed, c.seconds, c.traced, c.log)
	if err != nil {
		return nil, err
	}
	res.setupS = setupS
	out := &outcome{correct: res.wrong == 0, attempted: res.runs, failed: res.wrong, config: map[string]any{"cells": len(cells)}}
	if c.traced {
		out.metrics, out.traces = res.perLayer(), res.traces()
	} else {
		out.metrics = res.endToEnd()
	}
	return out, nil
}

// metricDef names a metric and its unit; the two lists below are the
// metrics of BENCHMARK.json, in its order.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"}, {"peak_heap_mib", "MiB"},
	{"p50_ms", "ms"}, {"p99_ms", "ms"}, {"goodput_rps", "1/s"},
}

var perLayerMetrics = []metricDef{
	{"store.open_ms", "ms"}, {"store.decode_ms", "ms"},
	{"graph.load_ms", "ms"},
	{"kplex.prologue_ms", "ms"}, {"kplex.ctcp_ms", "ms"}, {"kplex.core_ms", "ms"}, {"kplex.relabel_ms", "ms"},
	{"kplex.seed_build_ms", "ms"}, {"kplex.branch_ms", "ms"}, {"kplex.idle_ms", "ms"},
	{"kplex.seeds", "count"}, {"kplex.branches", "count"}, {"kplex.ub_pruned", "count"}, {"kplex.r1_pruned", "count"},
	{"kplex.collapses", "count"}, {"kplex.splits", "count"}, {"kplex.dense_builds", "count"}, {"kplex.emitted", "count"},
	{"kplex.ub_prune_ratio", "ratio"}, {"kplex.emitted_per_kbranch", "ratio"},
	{"server.cache_hit_ratio", "ratio"}, {"server.prepared_hit_ratio", "ratio"},
	{"server.flight_shared", "count"}, {"server.rejected", "count"}, {"server.graph_loads", "count"},
	{"server.handler_self_ms_p50", "ms"}, {"server.admission_wait_ms_p99", "ms"},
	{"server.prepare_ms_sum", "ms"}, {"server.enumerate_ms_sum", "ms"},
	{"jobs.queue_ms_p50", "ms"}, {"jobs.run_ms_p50", "ms"}, {"jobs.e2e_p50_s", "s"},
	{"jobs.checkpoints", "count"}, {"jobs.checkpoint_ms_sum", "ms"},
	{"loadgen.requests", "count"}, {"loadgen.lag_p99_ms", "ms"}, {"loadgen.conn_wait_p99_ms", "ms"},
	{"runtime.alloc_mib", "MiB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_cpu_frac", "ratio"},
	{"process.cpu_util", "ratio"},
	{"host.ref_ms", "ms"}, {"host.slowdown", "ratio"},
	{"trace.overhead_pct", "%"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as written to -out; it validates against schema.json.
type record struct {
	Schema   string         `json:"schema"`
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Scale    string         `json:"scale"`
	Host     hostInfo       `json:"host"`
	Config   map[string]any `json:"config"`
	result
}

const schemaID = "kplex-perf/1"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "all", "workload: "+strings.Join(names, ", ")+" or all")
	seed := fs.Int64("seed", 1, "workload seed: cell order, arrival times and request order")
	seconds := fs.Float64("seconds", 30, "seconds each run measures")
	trace := fs.Int("trace", 0, "1: run untraced and traced, print the per-layer metrics")
	scale := fs.String("scale", "full", "full, or smoke for tiny graphs")
	out := fs.String("out", filepath.Join("out", "records.jsonl"), "file for this invocation's records, one JSON object per line; trace and scratch files go beside it")
	expPath := fs.String("expected", "testdata/expected.json", "expected answers")
	writeExp := fs.Bool("write-expected", false, "add the answers computed during set-up to -expected")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*trace != 0 && *trace != 1) || (*scale != "full" && *scale != "smoke") || *seconds <= 0 {
		fmt.Fprintln(stderr, "perf: -trace must be 0 or 1, -scale full or smoke, -seconds positive")
		return 2
	}
	selected := workloads
	if *name != "all" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "perf: unknown workload %q\n", *name)
			return 2
		}
	}
	exp, err := loadExpectations(*expPath)
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	runtime.GOMAXPROCS(nproc())
	c := &runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, smoke: *scale == "smoke", outDir: filepath.Dir(*out), exp: exp, log: stderr}
	ref := newReference()
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	code := 0
	var records []byte
	for _, w := range selected {
		c.cal = &calibration{ref: ref}
		rec, err := runWorkload(w, c, *scale)
		if err == nil {
			records, err = appendRecord(records, rec)
		}
		if err == nil {
			err = os.WriteFile(*out, records, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perf: %s: %v\n", w.name, err)
			return 1
		}
		line, _ := json.Marshal(rec.result)
		fmt.Fprintln(stdout, string(line))
		if !rec.Correct {
			fmt.Fprintf(stderr, "perf: %s: wrong answers (see WRONG lines above)\n", w.name)
			code = 1
		}
	}
	if *writeExp && exp.computed > 0 {
		if err := exp.save(*expPath); err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
	}
	return code
}

// runWorkload runs w and turns its outcome into a record holding exactly
// the metrics the run mode reports.
func runWorkload(w workload, c *runConfig, scale string) (*record, error) {
	o, err := w.run(c)
	if err != nil {
		return nil, err
	}
	ref := median(c.cal.times)
	fmt.Fprintf(c.log, "perf: %s: calibration reference %.2f ms (median of %d), slowdown %.3f\n", w.name, ref, len(c.cal.times), ref/refNominalMS)
	defs := endToEndMetrics
	if c.traced {
		defs = perLayerMetrics
		if err := writeTraces(filepath.Join(c.outDir, "trace-"+w.name+".json"), o.traces); err != nil {
			return nil, err
		}
	}
	metrics := map[string]metric{}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && !c.traced {
			return nil, fmt.Errorf("end-to-end metric %s not measured", d.name)
		}
		metrics[d.name] = metric{v, d.unit}
	}
	return &record{
		Schema:   schemaID,
		Workload: w.name,
		Seed:     c.seed,
		Seconds:  c.seconds,
		Trace:    c.traced,
		Scale:    scale,
		Host:     hostBlock(),
		Config:   o.config,
		result:   result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: metrics},
	}, nil
}

//go:embed schema.json
var schemaJSON []byte

// appendRecord validates rec against schema.json and appends it to buf
// as one line.
func appendRecord(buf []byte, rec *record) ([]byte, error) {
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if err := validateRecord(data); err != nil {
		return nil, fmt.Errorf("record does not match schema.json: %w", err)
	}
	return append(append(buf, data...), '\n'), nil
}

func writeTraces(path string, traces []obs.TraceData) error {
	data, err := json.Marshal(traces)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// validateRecord checks a marshalled record against the embedded schema.
func validateRecord(data []byte) error {
	var schema, doc any
	if err := json.Unmarshal(schemaJSON, &schema); err != nil {
		return fmt.Errorf("schema.json: %w", err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	return validate(schema.(map[string]any), doc, "$")
}

// nproc is the CPU count the benchmark sizes its parallelism by: engine
// threads, the server's DefaultThreads and the load generator's
// connections are all nproc, and GOMAXPROCS is set to it.
func nproc() int { return runtime.NumCPU() }

// workDir makes a fresh scratch directory under out/ for files a run
// writes (store graphs, served files, the jobs WAL).
func workDir(out string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, "work-")
}
