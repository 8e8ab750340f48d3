package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// naiveIntersect is the map-based oracle for the merge kernel.
func naiveIntersect(a, b []int32) []int32 {
	in := make(map[int32]bool, len(a))
	for _, x := range a {
		in[x] = true
	}
	var out []int32
	for _, x := range b {
		if in[x] {
			out = append(out, x)
		}
	}
	slices.Sort(out)
	return out
}

func sortedRand(r *rand.Rand, n, space int) []int32 {
	seen := make(map[int32]bool)
	for len(seen) < n {
		seen[int32(r.Intn(space))] = true
	}
	out := make([]int32, 0, n)
	for x := range seen {
		out = append(out, x)
	}
	slices.Sort(out)
	return out
}

func TestCountCommonEmptyAndNil(t *testing.T) {
	some := []int32{1, 5, 9}
	cases := []struct {
		name string
		a, b []int32
	}{
		{"nil-nil", nil, nil},
		{"nil-some", nil, some},
		{"some-nil", some, nil},
		{"empty-some", []int32{}, some},
		{"some-empty", some, []int32{}},
		{"empty-empty", []int32{}, []int32{}},
	}
	for _, c := range cases {
		if got := CountCommon(c.a, c.b); got != 0 {
			t.Errorf("%s: CountCommon = %d, want 0", c.name, got)
		}
	}
}

func TestCountCommonDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		a := sortedRand(r, r.Intn(40), 60)
		b := sortedRand(r, r.Intn(40), 60)
		want := naiveIntersect(a, b)
		if got := CountCommon(a, b); got != len(want) {
			t.Fatalf("trial %d: CountCommon = %d, want %d", trial, got, len(want))
		}
	}
}
