// Command kplex enumerates all maximal k-plexes with at least q vertices
// from an edge-list graph, using the paper's branch-and-bound algorithm.
//
// Usage:
//
//	kplex -k 2 -q 12 graph.txt            # count only
//	kplex -k 2 -q 12 -print graph.txt     # print each k-plex
//	kplex -k 2 -q 12 -o out.bin graph.txt # stream results to a file
//	kplex -k 3 -q 20 -threads 16 -timeout 100us graph.txt
//	kplex -algo listplex ...              # run a baseline instead
//
// Result files written with -o use the text format unless the name ends in
// .bin (the delta-varint binary format); either can be checked or compared
// with cmd/kplexverify.
//
// The input is either a whitespace-separated edge list with '#' comments
// (the SNAP format; output vertex ids use the input's labels) or the
// compact binary format produced by gengraph -binary.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/sink"
)

func main() {
	var (
		k       = flag.Int("k", 2, "k-plex parameter (each vertex may miss k in-set links, itself included)")
		q       = flag.Int("q", 0, "minimum k-plex size (default 2k-1)")
		threads = flag.Int("threads", 1, "worker threads")
		timeout = flag.Duration("timeout", 0, "task-split timeout τ_time for parallel runs (e.g. 100us; 0 = off)")
		sched   = flag.String("sched", "stages", "parallel scheduler: stages | steal")
		algo    = flag.String("algo", "ours", "algorithm: ours | ours_p | basic | listplex | fp")
		doPrint = flag.Bool("print", false, "print every maximal k-plex (one per line)")
		outPath = flag.String("o", "", "stream results to this file (.bin suffix = binary format)")
		stats   = flag.Bool("stats", false, "print search statistics")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: kplex [flags] <edge-list file>")
		flag.Usage()
		os.Exit(2)
	}
	if *q == 0 {
		*q = 2**k - 1
	}

	rr, err := graph.ReadAnyFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	g := rr.Graph
	s := graph.ComputeStats(g)
	fmt.Fprintf(os.Stderr, "loaded %s: %s\n", flag.Arg(0), s)

	var opts kplex.Options
	switch *algo {
	case "ours":
		opts = kplex.NewOptions(*k, *q)
	case "ours_p":
		opts = kplex.NewOptions(*k, *q)
		opts.Branching = kplex.BranchFaPlexen
	case "basic":
		opts = kplex.BasicOptions(*k, *q)
	case "listplex":
		opts = baseline.ListPlexOptions(*k, *q)
	case "fp":
		opts = baseline.FPOptions(*k, *q)
	default:
		fatal(fmt.Errorf("unknown -algo %q", *algo))
	}
	opts.Threads = *threads
	opts.TaskTimeout = *timeout
	switch *sched {
	case "stages":
		opts.Scheduler = kplex.SchedulerStages
	case "steal":
		opts.Scheduler = kplex.SchedulerSteal
	default:
		fatal(fmt.Errorf("unknown -sched %q (have stages, steal)", *sched))
	}

	var mu sync.Mutex
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	var sinkW *sink.Writer
	var sinkFile *os.File
	if *outPath != "" {
		sinkFile, err = os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		if strings.HasSuffix(*outPath, ".bin") {
			sinkW, err = sink.NewBinaryWriter(sinkFile)
			if err != nil {
				fatal(err)
			}
		} else {
			sinkW = sink.NewTextWriter(sinkFile)
		}
	}

	if *doPrint || sinkW != nil {
		labelBuf := make([]int, 0, 64)
		opts.OnPlex = func(p []int) {
			mu.Lock()
			defer mu.Unlock()
			// Translate back to the input file's vertex labels. Labels are
			// assigned in ascending order, so the translation preserves the
			// sortedness the sink requires.
			labelBuf = labelBuf[:0]
			for _, v := range p {
				labelBuf = append(labelBuf, int(rr.OrigID[v]))
			}
			if sinkW != nil {
				if err := sinkW.Write(labelBuf); err != nil {
					fatal(err)
				}
			}
			if *doPrint {
				for i, v := range labelBuf {
					if i > 0 {
						fmt.Fprint(out, " ")
					}
					fmt.Fprint(out, v)
				}
				fmt.Fprintln(out)
			}
		}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	start := time.Now()
	res, err := kplex.Run(ctx, g, opts)
	if err != nil {
		out.Flush()
		fmt.Fprintf(os.Stderr, "interrupted after %v: %v\n", time.Since(start), err)
		os.Exit(1)
	}
	if sinkW != nil {
		if err := sinkW.Close(); err != nil {
			fatal(err)
		}
		if err := sinkFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *outPath)
	}
	fmt.Fprintf(os.Stderr, "%d maximal %d-plexes with >= %d vertices in %v\n",
		res.Count, *k, *q, res.Elapsed)
	if *stats {
		st := res.Stats
		fmt.Fprintf(os.Stderr, "seeds=%d tasks=%d tasksPrunedR1=%d branches=%d ubPruned=%d collapses=%d repicks=%d splits=%d steals=%d stealMisses=%d\n",
			st.Seeds, st.Tasks, st.TasksPrunedR1, st.Branches, st.UBPruned, st.Collapses, st.Repicks, st.Splits, st.Steals, st.StealMisses)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kplex:", err)
	os.Exit(1)
}
