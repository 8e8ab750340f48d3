package bitset

import (
	"math/bits"
	"math/rand"
	"testing"
)

func randWords(r *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = r.Uint64()
	}
	return w
}

func naiveAndCount(a, b []uint64) int {
	n := min(len(a), len(b))
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return c
}

func TestAndCountDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 100} {
		a, b := randWords(r, n), randWords(r, n)
		if got, want := AndCount(a, b), naiveAndCount(a, b); got != want {
			t.Fatalf("AndCount n=%d: got %d want %d", n, got, want)
		}
	}
	// Mismatched lengths truncate to the shorter operand.
	a, b := randWords(r, 10), randWords(r, 4)
	if got, want := AndCount(a, b), naiveAndCount(a, b); got != want {
		t.Fatalf("AndCount mismatched: got %d want %d", got, want)
	}
	if AndCount(nil, a) != 0 || AndCount(a, nil) != 0 || AndCount(nil, nil) != 0 {
		t.Fatal("AndCount with nil operand must be 0")
	}
}

func TestSubset(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 5, 16} {
		b := randWords(r, n)
		a := make([]uint64, n)
		for i := range a {
			a[i] = b[i] & r.Uint64() // subset of b by construction
		}
		if !Subset(a, b) {
			t.Fatalf("n=%d: constructed subset rejected", n)
		}
		if n > 0 {
			// Flip a bit that is clear in b.
			for i := range a {
				if free := ^b[i]; free != 0 {
					a[i] |= free & (^free + 1)
					break
				}
			}
			if Subset(a, b) {
				t.Fatalf("n=%d: non-subset accepted", n)
			}
		}
	}
	if !Subset(nil, nil) || !Subset(nil, []uint64{1}) {
		t.Fatal("empty set must be subset of anything")
	}
}

// naivePeel removes vertices with fewer than thr surviving neighbours,
// recomputing all degrees from scratch every round.
func naivePeel(adj [][]bool, alive []bool, thr int) int {
	n := len(adj)
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			d := 0
			for j := 0; j < n; j++ {
				if alive[j] && adj[i][j] {
					d++
				}
			}
			if d < thr {
				alive[i] = false
				changed = true
			}
		}
	}
	c := 0
	for _, a := range alive {
		if a {
			c++
		}
	}
	return c
}

func TestPeelDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(130)
		p := r.Float64()
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < p {
					adj[i][j], adj[j][i] = true, true
				}
			}
		}
		stride := (n + 63) / 64
		rows := make([]uint64, n*stride)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if adj[i][j] {
					rows[i*stride+j>>6] |= 1 << uint(j&63)
				}
			}
		}
		aliveBool := make([]bool, n)
		alive := make([]uint64, stride)
		for i := 0; i < n; i++ {
			if r.Intn(8) != 0 { // mostly alive, some pre-removed
				aliveBool[i] = true
				alive[i>>6] |= 1 << uint(i&63)
			}
		}
		thr := r.Intn(8)

		got := Peel(rows, stride, n, alive, thr)
		want := naivePeel(adj, aliveBool, thr)
		if got != want {
			t.Fatalf("trial %d (n=%d thr=%d): survivors got %d want %d", trial, n, thr, got, want)
		}
		for i := 0; i < n; i++ {
			if aliveBool[i] != (alive[i>>6]&(1<<uint(i&63)) != 0) {
				t.Fatalf("trial %d: vertex %d alive mismatch", trial, i)
			}
		}
	}
}

func TestPeelNonPositiveThreshold(t *testing.T) {
	alive := []uint64{0b1011}
	rows := make([]uint64, 4) // no edges at all
	if got := Peel(rows, 1, 4, alive, 0); got != 3 {
		t.Fatalf("thr=0 must keep everyone: got %d", got)
	}
	if alive[0] != 0b1011 {
		t.Fatalf("thr=0 mutated alive: %b", alive[0])
	}
}

func TestArenaRowsAccessors(t *testing.T) {
	var a Arena
	a.Reset(130, 5)
	if a.WordsPerRow() != 3 {
		t.Fatalf("WordsPerRow: got %d want 3", a.WordsPerRow())
	}
	if len(a.Rows()) < 5*3 {
		t.Fatalf("Rows: got %d words, want >= 15", len(a.Rows()))
	}
	s := a.New()
	s.Add(129)
	// Row 0 of the backing store is the set just carved.
	if a.Rows()[2] != 1<<uint(129-128) {
		t.Fatalf("Rows backing mismatch: %x", a.Rows()[2])
	}
}

func BenchmarkAndCount(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	x, y := randWords(r, 64), randWords(r, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkInt = AndCount(x, y)
	}
}

var sinkInt int
