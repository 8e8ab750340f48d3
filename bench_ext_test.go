// Extension benchmarks beyond the paper's tables: the coloring upper bound
// slotted into the Table 5 grid, the two maximum-k-plex solvers, top-k
// retrieval, the standalone oracle baselines, and the graph substrate
// (triangle counting, binary serialisation) that the statistics tooling
// relies on.
package kplex_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	kplex "repro"
)

// BenchmarkTable5xColorUB adds the coloring-bound column to the Table 5
// ablation (extension experiment; see README, "Benchmarks").
func BenchmarkTable5xColorUB(b *testing.B) {
	g := benchGraph("social")
	const k, q = 4, 24
	for _, v := range []struct {
		name string
		ub   kplex.UpperBoundStyle
	}{
		{"Ours_color_ub", kplex.UBColor},
		{"Ours", kplex.UBOurs},
	} {
		b.Run(v.name, func(b *testing.B) {
			opts := kplex.NewOptions(k, q)
			opts.UpperBound = v.ub
			for i := 0; i < b.N; i++ {
				runOnce(b, g, opts)
			}
		})
	}
}

// BenchmarkMaximumSolvers compares the binary-search reduction against the
// incumbent branch-and-bound on the same input (extension Table M).
func BenchmarkMaximumSolvers(b *testing.B) {
	g := benchGraph("social")
	const k = 3
	ctx := context.Background()
	b.Run("BinarySearch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := kplex.FindMaximumKPlex(ctx, g, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("BnB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := kplex.FindMaximumKPlexBnB(ctx, g, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if p := kplex.GreedyKPlex(g, k); len(p) == 0 {
				b.Fatal("greedy found nothing")
			}
		}
	})
}

// BenchmarkTopK measures the bounded-memory top-N retrieval against the
// full enumeration it wraps.
func BenchmarkTopK(b *testing.B) {
	g := benchGraph("community")
	const k, q, topN = 2, 10, 25
	b.Run("TopK", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := kplex.EnumerateTopK(context.Background(), g, kplex.NewOptions(k, q), topN); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CountOnly", func(b *testing.B) {
		opts := kplex.NewOptions(k, q)
		for i := 0; i < b.N; i++ {
			runOnce(b, g, opts)
		}
	})
}

// BenchmarkOracleBaselines measures the standalone D2K- and FaPlexen-style
// enumerators against the engine on an input small enough for all three.
func BenchmarkOracleBaselines(b *testing.B) {
	g := kplex.ChungLu(300, 12, 2.2, 77)
	const k, q = 2, 6
	b.Run("D2K", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := kplex.D2KEnumerate(g, k, q); len(got) == 0 {
				b.Fatal("no results")
			}
		}
	})
	b.Run("FaPlexen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := kplex.FaPlexenEnumerate(g, k, q); len(got) == 0 {
				b.Fatal("no results")
			}
		}
	})
	b.Run("Engine", func(b *testing.B) {
		opts := kplex.NewOptions(k, q)
		for i := 0; i < b.N; i++ {
			runOnce(b, g, opts)
		}
	})
}

// BenchmarkSchedulerAblation compares the paper's stage scheduler against
// the barrier-free work-stealing one; both run the same worker loop and
// differ only in how seeds are claimed.
func BenchmarkSchedulerAblation(b *testing.B) {
	g := benchGraph("large")
	const k, q = 2, 12
	threads := runtime.GOMAXPROCS(0)
	if threads > 16 {
		threads = 16
	}
	for _, v := range []struct {
		name  string
		sched kplex.SchedulerStyle
	}{
		{"Stages", kplex.SchedulerStages},
		{"Steal", kplex.SchedulerSteal},
	} {
		b.Run(v.name, func(b *testing.B) {
			opts := kplex.NewOptions(k, q)
			opts.Threads = threads
			opts.TaskTimeout = 100 * time.Microsecond
			opts.Scheduler = v.sched
			for i := 0; i < b.N; i++ {
				runOnce(b, g, opts)
			}
		})
	}
}

// BenchmarkExtendedStats measures the statistics pipeline behind
// cmd/kplexstats (triangle counting dominates).
func BenchmarkExtendedStats(b *testing.B) {
	g := benchGraph("social")
	for i := 0; i < b.N; i++ {
		s := kplex.ComputeExtendedGraphStats(g)
		if s.Triangles == 0 {
			b.Fatal("no triangles in the social graph")
		}
	}
}

// BenchmarkBinaryFormat measures the compact binary graph serialisation.
func BenchmarkBinaryFormat(b *testing.B) {
	g := benchGraph("large")
	var buf bytes.Buffer
	if err := kplex.WriteGraphBinary(&buf, g); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("Write", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := kplex.WriteGraphBinary(&buf, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Read", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := kplex.ReadGraphBinary(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
