package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d, want 130", s.Len())
	}
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("new set not empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("Contains(%d) false after Add", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("Contains(64) true after Remove")
	}
	if s.Count() != 7 {
		t.Fatalf("Count = %d, want 7", s.Count())
	}
	s.Clear()
	if !s.Empty() {
		t.Fatal("not empty after Clear")
	}
}

func TestFillTrimsTail(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128} {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Fatalf("n=%d: Fill count = %d", n, s.Count())
		}
	}
}

func TestNextAndForEach(t *testing.T) {
	s := New(200)
	want := []int{3, 64, 65, 130, 199}
	for _, i := range want {
		s.Add(i)
	}
	var got []int
	for i := s.Next(0); i != -1; i = s.Next(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("Next walk = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Next walk = %v, want %v", got, want)
		}
	}
	got = got[:0]
	s.ForEach(func(i int) { got = append(got, i) })
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ForEach = %v, want %v", got, want)
		}
	}
	if s.Next(200) != -1 {
		t.Fatal("Next past capacity should be -1")
	}
	if s.Any() != 3 {
		t.Fatalf("Any = %d, want 3", s.Any())
	}
}

func TestForEachRemoveCurrent(t *testing.T) {
	s := New(128)
	for i := 0; i < 128; i += 3 {
		s.Add(i)
	}
	// Removing the current bit during iteration must still visit all bits.
	visited := 0
	s.ForEach(func(i int) {
		visited++
		s.Remove(i)
	})
	if visited != 43 {
		t.Fatalf("visited %d bits, want 43", visited)
	}
	if !s.Empty() {
		t.Fatal("set should be empty after removing every visited bit")
	}
}

func TestSetAlgebra(t *testing.T) {
	mk := func(bits ...int) *Set {
		s := New(100)
		for _, b := range bits {
			s.Add(b)
		}
		return s
	}
	a := mk(1, 2, 3, 70)
	b := mk(2, 3, 4, 99)

	and := a.Clone()
	and.And(b)
	if got := and.AppendTo(nil); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("And = %v", got)
	}
	or := a.Clone()
	or.Or(b)
	if or.Count() != 6 {
		t.Fatalf("Or count = %d", or.Count())
	}
	if a.IntersectionCount(b) != 2 {
		t.Fatalf("IntersectionCount = %d", a.IntersectionCount(b))
	}
}

func TestCopyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Copy with mismatched capacity should panic")
		}
	}()
	New(10).Copy(New(20))
}

func TestArena(t *testing.T) {
	var a Arena
	a.Reset(70, 3)
	rows := []*Set{a.New(), a.New(), a.New(), a.New(), a.New()} // 2 overflow
	for i, r := range rows {
		r.Add(i)
		r.Add(69)
	}
	for i, r := range rows {
		if !r.Contains(i) || !r.Contains(69) || r.Count() != 2 {
			t.Fatalf("row %d corrupted: %v", i, r)
		}
		for j := range rows {
			if j != i && j != 69 && r.Contains(j) && j < 69 {
				t.Fatalf("row %d contains foreign bit %d", i, j)
			}
		}
	}
}

// TestQuickAgainstMap property-checks the bitset against a map-based model
// under a random operation sequence.
func TestQuickAgainstMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		s := New(n)
		model := make(map[int]bool)
		for op := 0; op < 500; op++ {
			i := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				s.Add(i)
				model[i] = true
			case 1:
				s.Remove(i)
				delete(model, i)
			default:
				if s.Contains(i) != model[i] {
					return false
				}
			}
		}
		if s.Count() != len(model) {
			return false
		}
		for i := range model {
			if !s.Contains(i) {
				return false
			}
		}
		ok := true
		s.ForEach(func(i int) {
			if !model[i] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAlgebraLaws property-checks De Morgan-style identities relating
// the counting helpers.
func TestQuickAlgebraLaws(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Add(i)
			}
			if rng.Intn(2) == 0 {
				b.Add(i)
			}
		}
		// |a∪b| = |a| + |b| − |a∩b|
		u := a.Clone()
		u.Or(b)
		if u.Count() != a.Count()+b.Count()-a.IntersectionCount(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIntersectionCount(b *testing.B) {
	a, c := New(4096), New(4096)
	for i := 0; i < 4096; i += 3 {
		a.Add(i)
	}
	for i := 0; i < 4096; i += 5 {
		c.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.IntersectionCount(c)
	}
}

// TestResize pins the scratch-reuse contract: a resized set has the new
// capacity, holds no bit of its previous contents, and shrinking then
// growing back within the first footprint does not allocate.
func TestResize(t *testing.T) {
	s := New(200)
	s.Fill()
	s.Resize(70)
	if s.Len() != 70 || !s.Empty() {
		t.Fatalf("after Resize(70): len %d, %v", s.Len(), s)
	}
	s.Add(69)
	s.Resize(130)
	if s.Len() != 130 || !s.Empty() {
		t.Fatalf("after Resize(130): len %d, %v", s.Len(), s)
	}
	if len(s.Words()) != len(New(130).Words()) {
		t.Fatal("resized set has a different word count from a fresh one of the same capacity")
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Resize(10)
		s.Resize(200)
	})
	if allocs != 0 {
		t.Errorf("Resize within footprint allocates %.1f objects/op, want 0", allocs)
	}
}
