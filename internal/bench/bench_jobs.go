package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/kplex"
)

// The jobs benchmark: enumeration throughput with and without seed-level
// checkpointing, recorded as a machine-readable snapshot (BENCH_jobs.json)
// so the perf trajectory of the durable job subsystem is tracked across
// PRs. The baseline computes the identical aggregates (count, top-k,
// histogram, plex digest) through a plain in-memory callback; the
// checkpointed run goes through the job manager with its per-seed
// buffering, WAL appends and fsyncs. The delta between them is therefore
// exactly the durability cost.

// JobsBenchCell is one (dataset, k, q) measurement.
type JobsBenchCell struct {
	Graph       string  `json:"graph"`
	K           int     `json:"k"`
	Q           int     `json:"q"`
	Threads     int     `json:"threads"`
	Count       int64   `json:"count"`
	Seeds       int     `json:"seeds"`
	Checkpoints int64   `json:"checkpoints"`
	BaselineMS  float64 `json:"baselineMs"` // aggregates, no durability
	JobMS       float64 `json:"jobMs"`      // job manager with WAL checkpoints
	OverheadPct float64 `json:"overheadPct"`
	BaselinePPS float64 `json:"baselinePlexesPerSec"`
	JobPPS      float64 `json:"jobPlexesPerSec"`
}

// JobsBenchReport is the BENCH_jobs.json document.
type JobsBenchReport struct {
	Tool            string          `json:"tool"`
	Threads         int             `json:"threads"`
	Reps            int             `json:"reps"`
	CheckpointSeeds int             `json:"checkpointSeeds"`
	Cells           []JobsBenchCell `json:"cells"`
	MeanOverheadPct float64         `json:"meanOverheadPct"`
	MaxOverheadPct  float64         `json:"maxOverheadPct"`
}

// jobsBenchCases picks the measured datasets. Checkpointing has a fixed
// durability cost (a handful of fsyncs per job), so meaningful overhead
// numbers need runs long enough to amortise it — the sub-second-and-up
// cells, not the millisecond toys.
func (c *Config) jobsBenchCases() []struct {
	ds Dataset
	kq KQ
} {
	names := map[string]bool{"wiki-vote-syn": true}
	if !c.Quick {
		names["epinions-syn"] = true
		names["slashdot-syn"] = true
		names["skitter-syn"] = true
	}
	var out []struct {
		ds Dataset
		kq KQ
	}
	for _, ds := range Suite() {
		if names[ds.Name] {
			out = append(out, struct {
				ds Dataset
				kq KQ
			}{ds, ds.Params[0]})
		}
	}
	return out
}

// JobsBench measures checkpointing overhead and writes the JSON snapshot
// to jsonPath (plus a human-readable table to Config.Out).
func (c *Config) JobsBench(jsonPath string) error {
	const reps = 5
	const checkpointSeeds = 64
	threads := c.threads()

	report := JobsBenchReport{
		Tool:            "kplexbench -json",
		Threads:         threads,
		Reps:            reps,
		CheckpointSeeds: checkpointSeeds,
	}

	c.printf("Jobs benchmark: enumeration throughput with/without seed checkpointing (threads=%d, best of %d)\n", threads, reps)
	c.printf("%-16s %6s %3s %3s %12s %12s %12s %9s\n", "dataset", "count", "k", "q", "baseline(ms)", "job(ms)", "ckpts", "overhead")

	for _, cs := range c.jobsBenchCases() {
		g := cs.ds.Build()
		k, q := cs.kq.K, cs.kq.Q

		cell := JobsBenchCell{Graph: cs.ds.Name, K: k, Q: q, Threads: threads}

		baseOpts := kplex.NewOptions(k, q)
		baseOpts.Threads = threads
		if threads > 1 {
			baseOpts.TaskTimeout = kplex.DefaultTaskTimeout
		}
		seeds, err := kplex.SeedSpace(g, baseOpts)
		if err != nil {
			return err
		}
		cell.Seeds = seeds

		// Baseline: identical aggregates, no durability.
		baselineRep := func() error {
			agg := kplex.NewAggregate(10)
			var mu sync.Mutex
			opts := baseOpts
			opts.OnPlex = func(p []int) {
				mu.Lock()
				agg.AddPlex(p)
				mu.Unlock()
			}
			res, err := kplex.Run(context.Background(), g, opts)
			if err != nil {
				return fmt.Errorf("baseline %s: %w", cs.ds.Name, err)
			}
			ms := float64(res.Elapsed) / float64(time.Millisecond)
			if cell.BaselineMS == 0 || ms < cell.BaselineMS {
				cell.BaselineMS = ms
			}
			cell.Count = res.Count
			return nil
		}

		// Checkpointed: through the job manager, WAL and fsyncs included.
		dir, err := os.MkdirTemp("", "kplexbench-jobs-")
		if err != nil {
			return err
		}
		graphName := cs.ds.Name
		m, err := jobs.Open(jobs.Config{
			Dir:             dir,
			Workers:         1,
			CheckpointSeeds: checkpointSeeds,
			DefaultThreads:  threads,
			Load: func(string) (graph.CSR, string, func(), error) {
				return g, graphName, func() {}, nil
			},
		})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		jobRep := func() error {
			man, err := m.Submit(jobs.Spec{Graph: graphName, K: k, Q: q, Threads: threads})
			if err != nil {
				return err
			}
			v, err := m.Wait(context.Background(), man.ID)
			if err != nil {
				return fmt.Errorf("waiting for job %s on %s: %w", man.ID, cs.ds.Name, err)
			}
			if v.State != jobs.StateDone {
				return fmt.Errorf("job %s on %s ended %s (%s)", man.ID, cs.ds.Name, v.State, v.Error)
			}
			res, err := m.Result(man.ID)
			if err != nil {
				return err
			}
			if res.Count != cell.Count {
				return fmt.Errorf("%s: job counted %d, baseline %d", cs.ds.Name, res.Count, cell.Count)
			}
			if cell.JobMS == 0 || res.ElapsedMS < cell.JobMS {
				cell.JobMS = res.ElapsedMS
			}
			return nil
		}

		// Interleave the reps so slow system phases (CI neighbours, thermal
		// drift) hit both variants equally instead of biasing one side.
		for rep := 0; rep < reps; rep++ {
			if err := baselineRep(); err != nil {
				m.Close()
				os.RemoveAll(dir)
				return err
			}
			if err := jobRep(); err != nil {
				m.Close()
				os.RemoveAll(dir)
				return err
			}
		}
		cell.Checkpoints = m.Counters().Checkpoints.Load() / reps
		m.Close()
		os.RemoveAll(dir)

		if cell.BaselineMS > 0 {
			cell.OverheadPct = (cell.JobMS - cell.BaselineMS) / cell.BaselineMS * 100
			cell.BaselinePPS = float64(cell.Count) / cell.BaselineMS * 1000
			cell.JobPPS = float64(cell.Count) / cell.JobMS * 1000
		}
		report.Cells = append(report.Cells, cell)
		c.printf("%-16s %6d %3d %3d %12.2f %12.2f %12d %8.2f%%\n",
			cs.ds.Name, cell.Count, k, q, cell.BaselineMS, cell.JobMS, cell.Checkpoints, cell.OverheadPct)
	}

	var sum float64
	for _, cell := range report.Cells {
		sum += cell.OverheadPct
		if cell.OverheadPct > report.MaxOverheadPct {
			report.MaxOverheadPct = cell.OverheadPct
		}
	}
	if len(report.Cells) > 0 {
		report.MeanOverheadPct = sum / float64(len(report.Cells))
	}
	c.printf("mean overhead %.2f%%, max %.2f%%\n", report.MeanOverheadPct, report.MaxOverheadPct)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	c.printf("wrote %s\n", jsonPath)
	return nil
}
