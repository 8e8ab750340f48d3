package bitset

import "testing"

func TestCountUpto(t *testing.T) {
	s := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		s.Add(i)
	}
	for _, tc := range []struct{ upto, want int }{
		{0, 0}, {1, 1}, {2, 2}, {63, 2}, {64, 3}, {65, 4}, {66, 5},
		{128, 6}, {129, 7}, {199, 7}, {200, 8}, {500, 8},
	} {
		if got := s.CountUpto(tc.upto); got != tc.want {
			t.Errorf("CountUpto(%d) = %d, want %d", tc.upto, got, tc.want)
		}
	}
	if got := s.CountUpto(-3); got != 0 {
		t.Errorf("CountUpto(-3) = %d, want 0", got)
	}
}

// TestArenaReset pins the recycling contract the seed pipeline depends on:
// after a Reset every row comes back empty, the previous generation's
// words do not leak into the new one, and re-dimensioning within the
// high-water footprint performs no allocation.
func TestArenaReset(t *testing.T) {
	var a Arena
	a.Reset(100, 4)
	r0 := a.New()
	r0.Fill()
	r1 := a.New()
	r1.Add(99)

	a.Reset(70, 3)
	for i := 0; i < 3; i++ {
		row := a.New()
		if row.Len() != 70 {
			t.Fatalf("row %d capacity %d, want 70", i, row.Len())
		}
		if !row.Empty() {
			t.Fatalf("row %d not empty after Reset: %v", i, row)
		}
		row.Add(i) // dirty it for the next generation's check
	}

	// Shrinking and growing within the first generation's footprint must
	// reuse storage; only exceeding it may allocate.
	allocs := testing.AllocsPerRun(100, func() {
		a.Reset(100, 4)
		for i := 0; i < 4; i++ {
			if !a.New().Empty() {
				t.Fatal("recycled row not empty")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Reset within footprint allocates %.1f objects/op, want 0", allocs)
	}
}

// TestArenaOverflowRows pins the fallback: rows beyond the pre-sized count
// still work (individually allocated), and earlier rows stay valid.
func TestArenaOverflowRows(t *testing.T) {
	var a Arena
	a.Reset(64, 1)
	first := a.New()
	first.Add(3)
	extra := a.New()
	extra.Add(5)
	if !first.Contains(3) || first.Contains(5) {
		t.Fatal("pre-sized row corrupted by overflow row")
	}
	if !extra.Contains(5) {
		t.Fatal("overflow row lost its bit")
	}
}
