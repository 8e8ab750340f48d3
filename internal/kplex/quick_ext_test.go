package kplex_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/gen"
	"repro/internal/kplex"
)

// Every upper-bound style, scheduler and thread count computes the same
// result count on arbitrary random graphs — the configuration space only
// trades time, never answers.
func TestQuickConfigurationsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(60)
		g := gen.GNP(n, 0.1+0.25*rng.Float64(), seed)
		k := 1 + rng.Intn(3)
		q := 2*k - 1 + rng.Intn(4)

		base, err := kplex.Run(context.Background(), g, kplex.NewOptions(k, q))
		if err != nil {
			return false
		}

		variants := []func() kplex.Options{
			func() kplex.Options {
				o := kplex.NewOptions(k, q)
				o.UpperBound = kplex.UBNone
				return o
			},
			func() kplex.Options {
				o := kplex.NewOptions(k, q)
				o.UpperBound = kplex.UBColor
				return o
			},
			func() kplex.Options {
				o := kplex.NewOptions(k, q)
				o.Branching = kplex.BranchFaPlexen
				return o
			},
			func() kplex.Options {
				o := kplex.NewOptions(k, q)
				o.Threads = 3
				o.TaskTimeout = 30 * time.Microsecond
				return o
			},
			func() kplex.Options {
				o := kplex.NewOptions(k, q)
				o.Threads = 3
				o.Scheduler = kplex.SchedulerSteal
				return o
			},
			func() kplex.Options {
				o := kplex.NewOptions(k, q)
				o.UseCTCP = true
				return o
			},
		}
		for _, mk := range variants {
			res, err := kplex.Run(context.Background(), g, mk())
			if err != nil || res.Count != base.Count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// The maximum solver returns a k-plex, and the greedy heuristic never
// beats it.
func TestQuickMaximumSolversConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(40)
		g := gen.GNP(n, 0.2+0.3*rng.Float64(), seed)
		k := 1 + rng.Intn(3)
		ctx := context.Background()

		bin, err := kplex.FindMaximumKPlex(ctx, g, k)
		if err != nil {
			return false
		}
		if bin != nil && !kplex.IsKPlex(g, bin, k) {
			return false
		}
		greedy := kplex.GreedyKPlex(g, k)
		if len(greedy) >= 2*k-1 && len(greedy) > len(bin) && bin != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// EnumerateTopK returns exactly the largest sizes of the full result set.
func TestQuickTopKSizes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNP(25+rng.Intn(30), 0.3, seed)
		k, q := 2, 4
		var sizes []int
		opts := kplex.NewOptions(k, q)
		opts.OnPlex = func(p []int) { sizes = append(sizes, len(p)) }
		if _, err := kplex.Run(context.Background(), g, opts); err != nil {
			return false
		}
		if len(sizes) == 0 {
			return true
		}
		topN := 1 + rng.Intn(len(sizes))
		top, _, err := kplex.EnumerateTopK(context.Background(), g, kplex.NewOptions(k, q), topN)
		if err != nil {
			return false
		}
		// Sort sizes descending and compare prefixes.
		for i := 1; i < len(sizes); i++ {
			for j := i; j > 0 && sizes[j-1] < sizes[j]; j-- {
				sizes[j-1], sizes[j] = sizes[j], sizes[j-1]
			}
		}
		if len(top) != topN {
			return false
		}
		for i, p := range top {
			if len(p) != sizes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
