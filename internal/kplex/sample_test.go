package kplex

// Tests for the seed-sampling estimator: membership determinism, the
// partition invariant, agreement between a SkipSeeds run and the selected
// per-seed counts, and — the acceptance criterion — 95% CI coverage of the
// exact golden count on ≥ 90% of (cell, salt) estimates at rate 0.1.

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/gen"
)

func TestSampleSeedsDeterministicPartition(t *testing.T) {
	const total, salt = 500, 0xABCDEF
	skip1, kept1, err := SampleSeeds(total, 0.3, salt)
	if err != nil {
		t.Fatal(err)
	}
	skip2, kept2, err := SampleSeeds(total, 0.3, salt)
	if err != nil {
		t.Fatal(err)
	}
	if kept1 != kept2 || skip1.Len() != skip2.Len() {
		t.Fatalf("same salt, different samples: kept %d/%d skip %d/%d",
			kept1, kept2, skip1.Len(), skip2.Len())
	}
	for s := 0; s < total; s++ {
		if skip1.Contains(s) != skip2.Contains(s) {
			t.Fatalf("seed %d membership differs between identical calls", s)
		}
	}
	if kept1+skip1.Len() != total {
		t.Fatalf("partition broken: kept %d + skipped %d != %d", kept1, skip1.Len(), total)
	}
	// ~30% of 500 kept; a 5x band catches only catastrophic bias.
	if kept1 < 50 || kept1 > 300 {
		t.Errorf("kept %d of %d at rate 0.3: implausible", kept1, total)
	}

	// A different salt must select a different subset (overwhelmingly).
	skip3, _, err := SampleSeeds(total, 0.3, salt+1)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for s := 0; s < total; s++ {
		if skip1.Contains(s) != skip3.Contains(s) {
			same = false
			break
		}
	}
	if same {
		t.Error("different salts selected the identical subset")
	}
}

func TestSampleSeedsEdgeCases(t *testing.T) {
	if _, _, err := SampleSeeds(10, 0, 1); err == nil {
		t.Error("rate 0 accepted")
	}
	if _, _, err := SampleSeeds(10, 1.5, 1); err == nil {
		t.Error("rate 1.5 accepted")
	}
	if _, _, err := SampleSeeds(-1, 0.5, 1); err == nil {
		t.Error("negative total accepted")
	}
	skip, kept, err := SampleSeeds(10, 1, 1)
	if err != nil || kept != 10 || skip.Len() != 0 {
		t.Errorf("rate 1: kept=%d skip=%d err=%v, want all kept", kept, skip.Len(), err)
	}
	skip, kept, err = SampleSeeds(0, 0.5, 1)
	if err != nil || kept != 0 || skip.Len() != 0 {
		t.Errorf("empty space: kept=%d skip=%d err=%v", kept, skip.Len(), err)
	}
}

func TestEstimateCountDegenerate(t *testing.T) {
	if e := EstimateCount(100, nil, 0.1); e.Count != 0 || e.StdErr != 0 {
		t.Errorf("empty sample: %+v", e)
	}
	// Full census: estimate equals the exact sum, zero error.
	e := EstimateCount(3, []int64{2, 5, 1}, 1)
	if e.Count != 8 || e.StdErr != 0 || e.CI95Lo != 8 || e.CI95Hi != 8 {
		t.Errorf("census: %+v, want exact 8 with zero-width CI", e)
	}
	// A census of 25 seeds holding 14 plexes: 25·(14/25) rounds to
	// 14.000000000000002, and the census must still report exactly 14.
	perSeed := make([]int64, 25)
	perSeed[3], perSeed[17] = 9, 5
	e = EstimateCount(25, perSeed, 1)
	if e.Count != 14 || e.CI95Lo != 14 || e.CI95Hi != 14 {
		t.Errorf("census of 25 seeds: %+v, want exactly 14 with zero-width CI", e)
	}
	// Lower bound never drops below the raw sample count.
	e = EstimateCount(1000, []int64{0, 0, 0, 0, 100}, 0.005)
	if e.CI95Lo < float64(e.RawCount) {
		t.Errorf("CI lower bound %v below raw count %d", e.CI95Lo, e.RawCount)
	}
}

// exactPerSeed enumerates one golden cell completely, returning the exact
// per-seed plex counts (indexed by seed id) and the seed-space size.
func exactPerSeed(t *testing.T, cg gen.CorpusGraph, k, q int) []int64 {
	t.Helper()
	g := cg.Build()
	opts := NewOptions(k, q)
	p, err := Prepare(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, p.SeedSpace())
	var mu sync.Mutex
	opts.OnPlexSeed = func(seed int, _ []int) {
		mu.Lock()
		counts[seed]++
		mu.Unlock()
	}
	opts.OnSeedDone = func(int, Stats) {}
	if _, err := RunPrepared(context.Background(), p, opts); err != nil {
		t.Fatal(err)
	}
	return counts
}

// TestSampleEstimateCoverage is the acceptance check: across every golden
// cell and a spread of salts, rate-0.1 estimates (after the production
// sample-size floor of EffectiveSampleRate) must cover the exact count
// within their reported 95% CI at least 90% of the time. One full
// enumeration per cell yields the exact per-seed counts; because seed
// groups are independent, a sampled run's raw counts are exactly the
// selected entries of that vector (TestSampleRunMatchesSelection pins
// that), so the sweep over salts costs no extra enumeration.
func TestSampleEstimateCoverage(t *testing.T) {
	const rate = 0.1
	salts := []uint64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987}
	covered, applicable := 0, 0
	for _, cg := range gen.Corpus() {
		for _, kq := range goldenCombos(cg.Name) {
			want := readGoldenCase(t, goldenCase{Graph: cg.Name, K: kq[0], Q: kq[1]})
			perSeed := exactPerSeed(t, cg, kq[0], kq[1])
			var exact int64
			for _, c := range perSeed {
				exact += c
			}
			if exact != want.Count {
				t.Fatalf("%s k=%d q=%d: per-seed counts sum to %d, golden %d",
					cg.Name, kq[0], kq[1], exact, want.Count)
			}
			for _, salt := range salts {
				eff := EffectiveSampleRate(len(perSeed), rate, 0)
				skip, kept, err := SampleSeeds(len(perSeed), eff, salt)
				if err != nil {
					t.Fatal(err)
				}
				sampled := make([]int64, 0, kept)
				for s := range perSeed {
					if !skip.Contains(s) {
						sampled = append(sampled, perSeed[s])
					}
				}
				est := EstimateCount(len(perSeed), sampled, eff)
				if est.SampledSeeds < 2 {
					continue // no variance estimate possible; skip the draw
				}
				applicable++
				if float64(exact) >= est.CI95Lo && float64(exact) <= est.CI95Hi {
					covered++
				}
			}
		}
	}
	if applicable == 0 {
		t.Fatal("no applicable estimates")
	}
	frac := float64(covered) / float64(applicable)
	t.Logf("coverage: %d/%d = %.3f", covered, applicable, frac)
	if frac < 0.9 {
		t.Errorf("95%% CI covered the exact count on %.1f%% of estimates, want >= 90%%", frac*100)
	}
}

// TestSampleRunMatchesSelection runs one cell with the sample's skip set
// installed and checks the enumerated raw count equals the sum of the
// exact per-seed counts over the selected seeds — the independence
// property the coverage sweep relies on.
func TestSampleRunMatchesSelection(t *testing.T) {
	cg := *gen.CorpusGraphByName("planted-a")
	perSeed := exactPerSeed(t, cg, 2, 6)

	g := cg.Build()
	opts := NewOptions(2, 6)
	p, err := Prepare(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	const salt = 42
	skip, kept, err := SampleSeeds(p.SeedSpace(), 0.25, salt)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for s, c := range perSeed {
		if !skip.Contains(s) {
			want += c
		}
	}
	opts.SkipSeeds = skip
	var got int64
	var mu sync.Mutex
	opts.OnPlexSeed = func(seed int, _ []int) {
		if skip.Contains(seed) {
			t.Errorf("skipped seed %d delivered a plex", seed)
		}
		mu.Lock()
		got++
		mu.Unlock()
	}
	res, err := RunPrepared(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || res.Count != want {
		t.Errorf("sampled run: delivered %d, Result.Count %d, want %d (kept %d seeds)",
			got, res.Count, want, kept)
	}
}

func TestTCrit95Monotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		v := tCrit95(df)
		if v > prev {
			t.Fatalf("tCrit95 not non-increasing at df=%d: %v > %v", df, v, prev)
		}
		prev = v
	}
	if v := tCrit95(1000); v != 1.960 {
		t.Errorf("normal limit %v, want 1.960", v)
	}
}

func TestEffectiveSampleRate(t *testing.T) {
	cases := []struct {
		total    int
		rate     float64
		minSeeds int
		want     float64
	}{
		{10, 0.1, 32, 1},        // whole space within the floor: census
		{32, 0.5, 32, 1},        // boundary: census
		{64, 0.1, 32, 0.5},      // floor dominates
		{1000, 0.1, 32, 0.1},    // requested rate dominates
		{1000, 0.01, 32, 0.032}, // floor raises a tiny rate
		{64, 0.1, 0, 0.5},       // minSeeds 0 means the default (32)
	}
	for _, c := range cases {
		got := EffectiveSampleRate(c.total, c.rate, c.minSeeds)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("EffectiveSampleRate(%d, %v, %d) = %v, want %v",
				c.total, c.rate, c.minSeeds, got, c.want)
		}
	}
}
