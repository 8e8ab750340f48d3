package kplex

// Seed-space sampling: enumerate a deterministic uniform subset of the
// seed ids and estimate the exact answer from it. Seed groups partition
// the maximal k-plexes (every maximal plex is found from exactly one
// seed), so per-seed plex counts are i.i.d. draws under simple random
// sampling of seeds and the classic survey estimator applies — the total
// is N × (sample mean) with a finite-population-corrected standard error.
//
// Membership is a pure function of (seed id, salt, rate): seed s is kept
// iff splitmix64(salt ^ s·φ) < rate·2⁶⁴. The same salt therefore always
// selects the same subset — sampled results are cacheable and
// singleflight-safe — while different salts give independent samples.

import (
	"fmt"
	"math"
)

// splitmix64 is the SplitMix64 finalizer: a cheap, well-distributed
// 64-bit mixing function (Steele et al.), used here to turn (salt, seed)
// into an effectively uniform 64-bit value.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// DefaultMinSampleSeeds is the sample-size floor EffectiveSampleRate
// applies: below a few dozen enumerated seeds the normal-approximation
// interval is not trustworthy (a skewed population easily yields an
// all-zero sample with a zero-width CI), and a seed space that small is
// cheap to enumerate exactly anyway.
const DefaultMinSampleSeeds = 32

// EffectiveSampleRate raises rate so the expected sample size is at least
// minSeeds (DefaultMinSampleSeeds when minSeeds <= 0): the requested rate
// governs large seed spaces — where sampling pays — while small spaces
// degrade toward a census instead of an untrustworthy estimate. Returns 1
// (full enumeration) when the whole space is within the floor.
func EffectiveSampleRate(total int, rate float64, minSeeds int) float64 {
	if minSeeds <= 0 {
		minSeeds = DefaultMinSampleSeeds
	}
	if total <= minSeeds {
		return 1
	}
	if floor := float64(minSeeds) / float64(total); rate < floor {
		return floor
	}
	return rate
}

// SampleSeeds deterministically selects each seed in [0, total) with
// probability rate, keyed by salt, and returns the complement as a skip
// set (ready for Options.SkipSeeds) plus the kept count. rate must be in
// (0, 1]; rate 1 keeps every seed (empty skip set).
func SampleSeeds(total int, rate float64, salt uint64) (*SeedSet, int, error) {
	if total < 0 {
		return nil, 0, fmt.Errorf("sample: negative seed space %d", total)
	}
	if rate <= 0 || rate > 1 || math.IsNaN(rate) {
		return nil, 0, fmt.Errorf("sample: rate %v outside (0, 1]", rate)
	}
	skip := NewSeedSet()
	if rate == 1 {
		return skip, total, nil
	}
	// Threshold in the full uint64 range; rate < 1 keeps this below 2⁶⁴.
	thresh := uint64(rate * math.Exp2(64))
	kept := 0
	for s := 0; s < total; s++ {
		if splitmix64(salt^(uint64(s)*0x9E3779B97F4A7C15)) < thresh {
			kept++
		} else {
			skip.Add(s)
		}
	}
	return skip, kept, nil
}

// SampleEstimate is the scaled-up answer from a seed-sampled run, with a
// normal-approximation 95% confidence interval (Student-t critical value
// for small samples, finite-population corrected).
type SampleEstimate struct {
	Rate         float64 `json:"rate"`         // requested sampling rate
	TotalSeeds   int     `json:"totalSeeds"`   // seed-space size N
	SampledSeeds int     `json:"sampledSeeds"` // seeds actually enumerated n
	RawCount     int64   `json:"rawCount"`     // plexes found in the sample
	Count        float64 `json:"estimatedCount"`
	StdErr       float64 `json:"stdErr"`
	CI95Lo       float64 `json:"ci95Lo"`
	CI95Hi       float64 `json:"ci95Hi"`
}

// EstimateCount forms the simple-random-sampling estimate of the exact
// plex count from the per-seed counts of the n enumerated seeds out of a
// space of totalSeeds. The estimator N·x̄ is unbiased; its standard error
// uses the sample variance with the finite-population correction
// (1 − n/N), and the interval uses the two-sided 95% Student-t critical
// value at n−1 degrees of freedom, so reported coverage stays honest for
// the small samples a low rate on a modest seed space produces. The lower
// bound is clamped at the raw sample count — the answer can never be
// below what was already found.
func EstimateCount(totalSeeds int, perSeed []int64, rate float64) SampleEstimate {
	n := len(perSeed)
	est := SampleEstimate{Rate: rate, TotalSeeds: totalSeeds, SampledSeeds: n}
	if n == 0 || totalSeeds == 0 {
		return est
	}
	var sum int64
	for _, c := range perSeed {
		sum += c
	}
	est.RawCount = sum
	N := float64(totalSeeds)
	mean := float64(sum) / float64(n)
	est.Count = N * mean
	if n == totalSeeds {
		est.Count = float64(sum) // a census is exact; N·x̄ can round off it
	}
	if n > 1 && n < totalSeeds {
		var s2 float64
		for _, c := range perSeed {
			d := float64(c) - mean
			s2 += d * d
		}
		s2 /= float64(n - 1)
		fpc := 1 - float64(n)/N
		est.StdErr = N * math.Sqrt(s2/float64(n)*fpc)
	}
	half := tCrit95(n-1) * est.StdErr
	est.CI95Lo = max(est.Count-half, float64(sum))
	est.CI95Hi = est.Count + half
	return est
}

// tCrit95 is the two-sided 95% Student-t critical value at df degrees of
// freedom (t₀.₉₇₅). Exact to three decimals through df 30, then the
// standard coarse steps down to the normal limit 1.960.
func tCrit95(df int) float64 {
	table := [...]float64{
		1:  12.706,
		2:  4.303,
		3:  3.182,
		4:  2.776,
		5:  2.571,
		6:  2.447,
		7:  2.365,
		8:  2.306,
		9:  2.262,
		10: 2.228,
		11: 2.201,
		12: 2.179,
		13: 2.160,
		14: 2.145,
		15: 2.131,
		16: 2.120,
		17: 2.110,
		18: 2.101,
		19: 2.093,
		20: 2.086,
		21: 2.080,
		22: 2.074,
		23: 2.069,
		24: 2.064,
		25: 2.060,
		26: 2.056,
		27: 2.052,
		28: 2.048,
		29: 2.045,
		30: 2.042,
	}
	switch {
	case df < 1:
		return 0 // no variance estimate exists; StdErr is 0 too
	case df <= 30:
		return table[df]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.960
	}
}
