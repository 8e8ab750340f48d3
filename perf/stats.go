package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// largestRemainder splits n into len(weights) whole parts proportional to
// weights, handing the units lost to rounding down to the largest
// fractional parts (ties to the lower index), so the parts always sum to n.
func largestRemainder(n int, weights []float64) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	parts := make([]int, len(weights))
	rem := make([]int, len(weights))
	frac := make([]float64, len(weights))
	left := n
	for i, w := range weights {
		exact := float64(n) * w / total
		parts[i] = int(exact)
		frac[i] = exact - float64(parts[i])
		left -= parts[i]
		rem[i] = i
	}
	sort.SliceStable(rem, func(a, b int) bool { return frac[rem[a]] > frac[rem[b]] })
	for i := 0; i < left; i++ {
		parts[rem[i]]++
	}
	return parts
}
