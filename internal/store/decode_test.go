package store

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kplex"
)

// TestDecodeMatchesGraph pins the bulk decode to the graph the file was
// written from, at block sizes that split rows across many blocks, and
// checks that it leaves the block cache empty.
func TestDecodeMatchesGraph(t *testing.T) {
	g := gen.ChungLu(3000, 10, 2.3, 5)
	for _, blockVerts := range []int{1, 7, 64, 4096} {
		r, err := OpenFile(writeTestGraph(t, g, blockVerts))
		if err != nil {
			t.Fatal(err)
		}
		dg, err := r.Decode()
		if err != nil {
			t.Fatalf("block=%d: %v", blockVerts, err)
		}
		if graph.Digest(dg) != graph.Digest(g) || dg.M() != g.M() {
			t.Fatalf("block=%d: decoded graph differs from the written one", blockVerts)
		}
		if len(r.cache.slots) != 0 {
			t.Fatalf("block=%d: Decode filled %d cache slots", blockVerts, len(r.cache.slots))
		}
		r.Close()
	}
}

// TestDecodeRejectsHeaderArcCount rewrites the header (CRC recomputed) to
// declare one edge more or fewer than the rows hold, far more than the
// data region can encode, or so many that doubling the count wraps to the
// true arc count.
func TestDecodeRejectsHeaderArcCount(t *testing.T) {
	path := writeTestGraph(t, gen.GNP(200, 0.05, 3), 16)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := decodeHeader(orig, uint64(len(orig)))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []uint64{hdr.M - 1, hdr.M + 1, 1 << 40, 1<<63 + hdr.M} {
		h := hdr
		h.M = m
		data := append(h.encode()[:headerSize], orig[headerSize:]...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Decode(); err == nil {
			t.Errorf("m=%d (rows hold %d edges): Decode accepted the file", m, hdr.M)
		}
		r.Close()
	}
}

// TestPrepareRejectsCorruptBlock flips each byte of a store file's
// adjacency blocks in turn, with the header and its CRC intact, and
// requires kplex.Prepare to return an error, never to panic, with CTCP
// off and on. Most flips break a row check; the rest decode to valid rows
// that lost or gained an arc, which only the reverse-arc check catches.
func TestPrepareRejectsCorruptBlock(t *testing.T) {
	g := gen.CorpusGraphByName("planted-a").Build()
	path := writeTestGraph(t, g, 32)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := decodeHeader(orig, uint64(len(orig)))
	if err != nil {
		t.Fatal(err)
	}
	prepare := func(r *Reader, ctcp bool) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		_, err = kplex.Prepare(r, kplex.Options{K: 2, Q: 6, UseCTCP: ctcp})
		if err == nil {
			return fmt.Errorf("no error")
		}
		return nil
	}
	for off := hdr.DataOff; off < hdr.DataOff+hdr.DataLen; off++ {
		for _, flip := range []byte{0x01, 0x80} {
			data := append([]byte(nil), orig...)
			data[off] ^= flip
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, ctcp := range []bool{false, true} {
				if err := prepare(r, ctcp); err != nil {
					t.Fatalf("byte %d ^ %#x, ctcp=%v: %v", off-hdr.DataOff, flip, ctcp, err)
				}
			}
			r.Close()
		}
	}
}

// TestConcurrentPrepareOnSharedReader runs two Prepares on one Reader at
// once, beside two scans of point reads through a two-block cache (CI
// runs this package under the race detector), and requires both handles
// to equal the in-memory one and every row to match; a decode after
// Close then panics with the closed-Reader message.
func TestConcurrentPrepareOnSharedReader(t *testing.T) {
	g := gen.CorpusGraphByName("chunglu-tail").Build()
	r, err := OpenFileCache(writeTestGraph(t, g, 64), 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := kplex.Options{K: 2, Q: 6, UseCTCP: true}
	want, err := kplex.Prepare(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := graph.Digest(g)
	var wg sync.WaitGroup
	got := make([]*kplex.Prepared, 2)
	errs := make([]error, 2)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = kplex.Prepare(r, opts)
		}()
	}
	scanErrs := make([]error, 2)
	for i := range scanErrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := 0; v < g.N(); v++ {
				if !slices.Equal(r.Neighbors(v), g.Neighbors(v)) || r.Degree(v) != g.Degree(v) {
					scanErrs[i] = fmt.Errorf("scan %d: row %d differs", i, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range scanErrs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if string(kplex.MarshalPrepared(got[i], d)) != string(kplex.MarshalPrepared(want, d)) {
			t.Fatalf("goroutine %d: prologue differs from the in-memory one", i)
		}
	}
	r.Close()
	defer func() {
		p := recover()
		if msg, _ := p.(string); !strings.Contains(msg, "use of closed Reader") {
			t.Fatalf("Decode after Close: recovered %v, want the closed-Reader panic", p)
		}
	}()
	r.Decode() //nolint:errcheck // must panic
}
