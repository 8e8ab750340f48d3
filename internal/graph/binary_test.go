package graph

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		n := 1 + rng.Intn(200)
		var b Builder
		for i := 0; i < n*4; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g, _ := b.Build(n)

		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("size changed: %d/%d -> %d/%d", g.N(), g.M(), g2.N(), g2.M())
		}
		for v := 0; v < g.N(); v++ {
			a, c := g.Neighbors(v), g2.Neighbors(v)
			if len(a) != len(c) {
				t.Fatalf("vertex %d adjacency length differs", v)
			}
			for i := range a {
				if a[i] != c[i] {
					t.Fatalf("vertex %d adjacency differs", v)
				}
			}
		}
	}
}

func TestBinaryEmptyAndSingleton(t *testing.T) {
	for _, n := range []int{0, 1} {
		g, _ := (&Builder{}).Build(n)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g2.N() != n || g2.M() != 0 {
			t.Fatalf("n=%d: round trip gave %d/%d", n, g2.N(), g2.M())
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC plus data beyond"),
		append([]byte{}, binaryMagic[:]...), // header only, no counts
	}
	for i, c := range cases {
		if _, err := ReadBinary(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Valid header but truncated adjacency.
	var buf bytes.Buffer
	g := mustBuild(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(full[:len(full)-1])); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestBinaryFileHelpers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	g := mustBuild(t, 5, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	if err := WriteBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadAnyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Graph.M() != g.M() {
		t.Fatal("file round trip lost edges")
	}
}

func TestReadAnyFileDetectsFormat(t *testing.T) {
	dir := t.TempDir()
	g := mustBuild(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})

	binPath := filepath.Join(dir, "g.bin")
	if err := WriteBinaryFile(binPath, g); err != nil {
		t.Fatal(err)
	}
	rr, err := ReadAnyFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Graph.M() != g.M() {
		t.Fatal("binary auto-detect failed")
	}

	txtPath := filepath.Join(dir, "g.txt")
	var sb strings.Builder
	if err := WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(txtPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	rr, err = ReadAnyFile(txtPath)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Graph.M() != g.M() {
		t.Fatal("text auto-detect failed")
	}

	if _, err := ReadAnyFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestQuickBinaryRoundTrip property-checks the codec over random graphs.
func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		var b Builder
		for i := 0; i < n*2; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g, _ := b.Build(n)
		var buf bytes.Buffer
		if WriteBinary(&buf, g) != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil || g2.N() != g.N() || g2.M() != g.M() {
			return false
		}
		for v := 0; v < g.N(); v++ {
			a, c := g.Neighbors(v), g2.Neighbors(v)
			if len(a) != len(c) {
				return false
			}
			for i := range a {
				if a[i] != c[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
