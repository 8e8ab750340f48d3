// Parallel enumeration: scale-up across worker threads and the effect of
// the τ_time straggler-splitting threshold from Section 6 of the paper.
//
//	go run ./examples/parallel
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
	// A power-law graph big enough that parallelism matters but small
	// enough for a demo run.
	g := kplex.ChungLu(20000, 18, 2.2, 17)
	fmt.Printf("graph: %v\n", kplex.ComputeGraphStats(g))

	const k, q = 2, 12

	// Thread sweep with the paper's default τ_time = 0.1 ms.
	maxThreads := runtime.GOMAXPROCS(0)
	if maxThreads > 16 {
		maxThreads = 16
	}
	var base time.Duration
	fmt.Printf("\n%8s %12s %9s %8s\n", "threads", "time", "speedup", "splits")
	for threads := 1; threads <= maxThreads; threads *= 2 {
		opts := kplex.NewOptions(k, q)
		opts.Threads = threads
		if threads > 1 {
			opts.TaskTimeout = 100 * time.Microsecond
		}
		res, err := kplex.Enumerate(context.Background(), g, opts)
		if err != nil {
			log.Fatal(err)
		}
		if threads == 1 {
			base = res.Elapsed
		}
		fmt.Printf("%8d %12v %8.2fx %8d  (count=%d)\n",
			threads, res.Elapsed.Round(time.Millisecond),
			float64(base)/float64(res.Elapsed), res.Stats.Splits, res.Count)
	}

	// τ_time sweep at full threads: too-large values leave stragglers on a
	// single worker, too-small values pay task-materialisation overhead.
	fmt.Printf("\nτ_time sweep (%d threads):\n%12s %12s %9s\n", maxThreads, "τ", "time", "splits")
	for _, tau := range []time.Duration{
		time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond,
		time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
	} {
		opts := kplex.NewOptions(k, q)
		opts.Threads = maxThreads
		opts.TaskTimeout = tau
		res, err := kplex.Enumerate(context.Background(), g, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%12v %12v %9d\n", tau, res.Elapsed.Round(time.Millisecond), res.Stats.Splits)
	}
}
