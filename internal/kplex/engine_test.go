package kplex_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kplex"
)

// collect runs the engine with the given options and returns the result set
// in canonical form (each plex sorted, plexes sorted lexicographically).
func collect(t *testing.T, g *graph.Graph, opts kplex.Options) [][]int {
	t.Helper()
	var mu chan struct{}
	_ = mu
	var out [][]int
	opts.OnPlex = func(p []int) {
		out = append(out, append([]int(nil), p...))
	}
	if opts.Threads > 1 {
		// OnPlex must be synchronised for parallel runs.
		ch := make(chan []int, 1024)
		done := make(chan struct{})
		opts.OnPlex = func(p []int) { ch <- append([]int(nil), p...) }
		go func() {
			for p := range ch {
				out = append(out, p)
			}
			close(done)
		}()
		res, err := kplex.Run(context.Background(), g, opts)
		close(ch)
		<-done
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if int(res.Count) != len(out) {
			t.Fatalf("count %d != emitted %d", res.Count, len(out))
		}
		canonicalize(out)
		return out
	}
	res, err := kplex.Run(context.Background(), g, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if int(res.Count) != len(out) {
		t.Fatalf("count %d != emitted %d", res.Count, len(out))
	}
	canonicalize(out)
	return out
}

func canonicalize(plexes [][]int) {
	for _, p := range plexes {
		sort.Ints(p)
	}
	sort.Slice(plexes, func(i, j int) bool { return lessIntSlice(plexes[i], plexes[j]) })
}

func lessIntSlice(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func equalSets(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func describe(plexes [][]int) string {
	s := fmt.Sprintf("%d plexes", len(plexes))
	for i, p := range plexes {
		if i >= 8 {
			return s + " ..."
		}
		s += fmt.Sprintf(" %v", p)
	}
	return s
}

// variantOptions enumerates every engine configuration that must produce
// the same result set.
func variantOptions(k, q int) map[string]kplex.Options {
	ours := kplex.NewOptions(k, q)

	oursP := kplex.NewOptions(k, q)
	oursP.Branching = kplex.BranchFaPlexen

	basic := kplex.BasicOptions(k, q)

	noUB := kplex.NewOptions(k, q)
	noUB.UpperBound = kplex.UBNone

	fpUB := kplex.NewOptions(k, q)
	fpUB.UpperBound = kplex.UBSortFP

	ctcp := kplex.NewOptions(k, q)
	ctcp.UseCTCP = true

	return map[string]kplex.Options{
		"ours":     ours,
		"ours_p":   oursP,
		"basic":    basic,
		"no_ub":    noUB,
		"fp_ub":    fpUB,
		"ctcp":     ctcp,
		"listplex": baseline.ListPlexOptions(k, q),
		"fp":       baseline.FPOptions(k, q),
	}
}

// TestAgainstNaiveOracle compares every engine variant against the plain
// Bron-Kerbosch oracle on a sweep of small random graphs.
func TestAgainstNaiveOracle(t *testing.T) {
	type cfg struct {
		n    int
		p    float64
		k, q int
	}
	cases := []cfg{
		{12, 0.5, 1, 3},
		{12, 0.5, 2, 3},
		{14, 0.4, 2, 4},
		{14, 0.6, 2, 5},
		{14, 0.7, 3, 5},
		{16, 0.5, 3, 6},
		{13, 0.8, 4, 7},
		{15, 0.3, 2, 3},
		{10, 0.9, 2, 6},
		{18, 0.35, 2, 4},
	}
	for ci, c := range cases {
		for seed := int64(0); seed < 4; seed++ {
			g := gen.GNP(c.n, c.p, 1000*int64(ci)+seed)
			want := baseline.NaiveEnumerate(g, c.k, c.q)
			canonicalize(want)
			for name, opts := range variantOptions(c.k, c.q) {
				got := collect(t, g, opts)
				if !equalSets(got, want) {
					t.Errorf("case %+v seed %d variant %s:\n got  %s\n want %s",
						c, seed, name, describe(got), describe(want))
				}
			}
		}
	}
}

// TestEmittedPlexesAreMaximal verifies the structural invariants of every
// emitted set on a mid-sized power-law graph where the oracle would be too
// slow: k-plex property, maximality, size >= q, no duplicates.
func TestEmittedPlexesAreMaximal(t *testing.T) {
	g := gen.ChungLu(400, 12, 2.4, 7)
	for _, kc := range []struct{ k, q int }{{2, 6}, {3, 7}} {
		opts := kplex.NewOptions(kc.k, kc.q)
		got := collect(t, g, opts)
		if len(got) == 0 {
			t.Fatalf("k=%d q=%d: no plexes found; test graph too sparse", kc.k, kc.q)
		}
		seen := make(map[string]bool, len(got))
		// The k-plex property is checked for every emitted set; the much
		// more expensive maximality check is sampled.
		stride := len(got)/200 + 1
		for i, p := range got {
			key := fmt.Sprint(p)
			if seen[key] {
				t.Fatalf("k=%d q=%d: duplicate plex %v", kc.k, kc.q, p)
			}
			seen[key] = true
			if len(p) < kc.q {
				t.Fatalf("k=%d q=%d: plex %v smaller than q", kc.k, kc.q, p)
			}
			if !kplex.IsKPlex(g, p, kc.k) {
				t.Fatalf("k=%d q=%d: emitted set %v is not a k-plex", kc.k, kc.q, p)
			}
			if i%stride == 0 && graph.CanExtendKPlex(g, p, kc.k) {
				t.Fatalf("k=%d q=%d: emitted k-plex %v is not maximal", kc.k, kc.q, p)
			}
		}
	}
}

// TestVariantsAgreeOnMediumGraphs cross-checks all variants (including
// parallel configurations) on graphs big enough to exercise deep recursion,
// where the naive oracle cannot be used.
func TestVariantsAgreeOnMediumGraphs(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"chunglu": gen.ChungLu(600, 14, 2.3, 11),
		"ba":      gen.BarabasiAlbert(500, 8, 12),
		"planted": gen.Planted(gen.PlantedConfig{
			N: 300, BackgroundP: 0.02, Communities: 6, CommSize: 14,
			DropPerV: 1, Overlap: 3, Seed: 13,
		}),
	}
	for gname, g := range graphs {
		for _, kc := range []struct{ k, q int }{{2, 6}, {3, 8}} {
			ref := collect(t, g, kplex.NewOptions(kc.k, kc.q))
			for name, opts := range variantOptions(kc.k, kc.q) {
				got := collect(t, g, opts)
				if !equalSets(got, ref) {
					t.Errorf("%s k=%d q=%d variant %s: %d plexes, want %d",
						gname, kc.k, kc.q, name, len(got), len(ref))
				}
			}
		}
	}
}

// TestParallelMatchesSequential checks thread counts and timeout values.
func TestParallelMatchesSequential(t *testing.T) {
	g := gen.ChungLu(800, 16, 2.3, 3)
	k, q := 2, 6
	ref := collect(t, g, kplex.NewOptions(k, q))
	for _, threads := range []int{2, 4, 8} {
		for _, timeoutUS := range []int{0, 1, 50} {
			opts := kplex.NewOptions(k, q)
			opts.Threads = threads
			opts.TaskTimeout = microseconds(timeoutUS)
			got := collect(t, g, opts)
			if !equalSets(got, ref) {
				t.Errorf("threads=%d timeout=%dus: %d plexes, want %d",
					threads, timeoutUS, len(got), len(ref))
			}
		}
	}
}
