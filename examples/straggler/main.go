// Command straggler demonstrates the Section 6 machinery: a workload with
// a few huge seed subgraphs (planted overlapping communities) creates
// straggler tasks that serialise a naive parallel run. The example sweeps
// the τ_time task-split threshold, prints the split counts alongside the
// wall-clock times, and contrasts the paper's stage-based scheduler with the
// barrier-free work-stealing scheduler (SchedulerSteal).
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	kplex "repro"
)

func main() {
	// Overlapping planted communities produce seed subgraphs of very
	// different sizes — the straggler scenario.
	g := kplex.Planted(kplex.PlantedConfig{
		N: 3000, BackgroundP: 0.002, Communities: 30,
		CommSize: 24, DropPerV: 2, Overlap: 6, Seed: 11,
	})
	const k, q = 3, 9
	threads := runtime.GOMAXPROCS(0)
	if threads > 8 {
		threads = 8
	}
	fmt.Printf("graph: %s, %d threads, k=%d q=%d\n",
		kplex.ComputeGraphStats(g), threads, k, q)

	run := func(label string, tau time.Duration, sched kplex.SchedulerStyle) {
		opts := kplex.NewOptions(k, q)
		opts.Threads = threads
		opts.TaskTimeout = tau
		opts.Scheduler = sched
		res, err := kplex.Enumerate(context.Background(), g, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-26s %8.3fs  count=%d tasks=%d splits=%d steals=%d\n",
			label, res.Elapsed.Seconds(), res.Count, res.Stats.Tasks,
			res.Stats.Splits, res.Stats.Steals)
	}

	fmt.Println("τ_time sweep (stage scheduler):")
	run("no splitting (τ=∞)", 0, kplex.SchedulerStages)
	for _, tau := range []time.Duration{
		10 * time.Millisecond, time.Millisecond, 100 * time.Microsecond, 10 * time.Microsecond,
	} {
		run(fmt.Sprintf("τ=%v", tau), tau, kplex.SchedulerStages)
	}

	fmt.Println("scheduler comparison (τ=0.1ms, the paper's default):")
	run("stage barriers", 100*time.Microsecond, kplex.SchedulerStages)
	run("work stealing (steal-half)", 100*time.Microsecond, kplex.SchedulerSteal)
}
