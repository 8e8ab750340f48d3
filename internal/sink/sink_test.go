package sink

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func randomPlexes(rng *rand.Rand, n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		size := 1 + rng.Intn(12)
		set := map[int]bool{}
		for len(set) < size {
			set[rng.Intn(100000)] = true
		}
		p := make([]int, 0, size)
		for v := range set {
			p = append(p, v)
		}
		// Sort ascending as the writer contract requires.
		for x := 1; x < len(p); x++ {
			for y := x; y > 0 && p[y-1] > p[y]; y-- {
				p[y-1], p[y] = p[y], p[y-1]
			}
		}
		out[i] = p
	}
	return out
}

func TestTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	want := randomPlexes(rng, 200)
	var buf bytes.Buffer
	w := NewTextWriter(&buf)
	for _, p := range want {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, want) {
		t.Error("text round trip changed the result set")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	want := randomPlexes(rng, 300)
	var buf bytes.Buffer
	w, err := NewBinaryWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range want {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, want) {
		t.Error("binary round trip changed the result set")
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	plexes := randomPlexes(rng, 500)
	var tb, bb bytes.Buffer
	tw := NewTextWriter(&tb)
	bw, _ := NewBinaryWriter(&bb)
	for _, p := range plexes {
		tw.Write(p) //nolint:errcheck
		bw.Write(p) //nolint:errcheck
	}
	tw.Close() //nolint:errcheck
	bw.Close() //nolint:errcheck
	if bb.Len() >= tb.Len() {
		t.Errorf("binary (%d bytes) not smaller than text (%d bytes)", bb.Len(), tb.Len())
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	w := NewTextWriter(&bytes.Buffer{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write([]int{1, 2}); err == nil {
		t.Error("expected error writing after close")
	}
}

func TestConcurrentWrites(t *testing.T) {
	var buf bytes.Buffer
	w := NewTextWriter(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				w.Write([]int{base, base + 1, base + i + 2}) //nolint:errcheck
			}
		}(g * 1000)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 800 {
		t.Errorf("read %d plexes, want 800", len(got))
	}
}

func TestReadTextErrors(t *testing.T) {
	if _, err := ReadAll(strings.NewReader("1 2 x\n")); err == nil {
		t.Error("expected parse error")
	}
	got, err := ReadAll(strings.NewReader("\n\n  \n"))
	if err != nil || len(got) != 0 {
		t.Errorf("blank input: got %v, %v", got, err)
	}
}

func TestReadBinaryTruncated(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewBinaryWriter(&buf)
	w.Write([]int{5, 9, 12}) //nolint:errcheck
	w.Close()                //nolint:errcheck
	data := buf.Bytes()
	if _, err := ReadAll(bytes.NewReader(data[:len(data)-1])); err == nil {
		t.Error("expected truncation error")
	}
}

func TestEqualAndSort(t *testing.T) {
	a := [][]int{{1, 2, 3}, {4, 5}}
	b := [][]int{{4, 5}, {1, 2, 3}}
	if !Equal(a, b) {
		t.Error("Equal should ignore order")
	}
	c := [][]int{{1, 2, 3}, {4, 6}}
	if Equal(a, c) {
		t.Error("Equal should detect differing plexes")
	}
	if Equal(a, a[:1]) {
		t.Error("Equal should detect differing lengths")
	}
	// Duplicate multiplicity matters.
	d := [][]int{{1, 2}, {1, 2}}
	e := [][]int{{1, 2}, {3, 4}}
	if Equal(d, e) {
		t.Error("Equal should respect multiplicity")
	}

	s := [][]int{{2, 3}, {1, 2, 3}, {1, 2}}
	SortPlexes(s)
	if len(s[0]) != 3 || s[1][0] != 1 || s[2][0] != 2 {
		t.Errorf("SortPlexes order wrong: %v", s)
	}
}

func TestVerifyReportString(t *testing.T) {
	rep := Report{Total: 3, MinSize: 2, MaxSize: 5}
	if !strings.HasPrefix(rep.String(), "OK") {
		t.Errorf("clean report should start with OK: %s", rep)
	}
	rep.NotKPlex = 1
	if !strings.HasPrefix(rep.String(), "FAILED") {
		t.Errorf("dirty report should start with FAILED: %s", rep)
	}
}
