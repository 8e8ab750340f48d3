package server

import (
	"fmt"
	"testing"

	"repro/internal/kplex"
)

// TestPreparedCacheSharedAcrossModes pins the prologue amortization
// contract: queries in one (graph, k, q) cell share a single prepared
// handle no matter the mode (count / topk / histogram all enumerate the
// same decomposition), while a different (k, q) cell prepares its own.
func TestPreparedCacheSharedAcrossModes(t *testing.T) {
	s, hs := newTestServer(t, Config{})

	query := func(body string) {
		t.Helper()
		code, _ := postQuery(t, hs.URL, body)
		if code != 200 {
			t.Fatalf("query %s: status %d", body, code)
		}
	}
	// Three modes in one cell: one miss, two hits (result cache keys
	// differ per mode, so each reaches execute).
	query(`{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count"}`)
	query(`{"graph":"corpus:planted-a","k":2,"q":6,"mode":"topk","topn":3}`)
	query(`{"graph":"corpus:planted-a","k":2,"q":6,"mode":"histogram"}`)

	m := s.Metrics()
	if m["prepared_misses"] != 1 {
		t.Fatalf("prepared_misses = %d, want 1 (one cell, one prologue)", m["prepared_misses"])
	}
	if m["prepared_hits"] != 2 {
		t.Fatalf("prepared_hits = %d, want 2", m["prepared_hits"])
	}
	if got := s.prep.len(); got != 1 {
		t.Fatalf("prepared cache holds %d handles, want 1", got)
	}

	// A different (k, q) cell is a different decomposition.
	query(`{"graph":"corpus:planted-a","k":3,"q":8,"mode":"count"}`)
	m = s.Metrics()
	if m["prepared_misses"] != 2 {
		t.Fatalf("prepared_misses = %d after second cell, want 2", m["prepared_misses"])
	}
	if got := s.prep.len(); got != 2 {
		t.Fatalf("prepared cache holds %d handles, want 2", got)
	}
}

// TestPreparedCacheServesStreams pins that the streaming path shares the
// same prepared handles as the cacheable modes: a stream after a count
// query in the same cell is a prepared hit.
func TestPreparedCacheServesStreams(t *testing.T) {
	s, hs := newTestServer(t, Config{})

	code, _ := postQuery(t, hs.URL, `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count"}`)
	if code != 200 {
		t.Fatalf("count query: status %d", code)
	}
	resp, err := hs.Client().Get(hs.URL + "/stream?graph=corpus:planted-a&k=2&q=6")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	// Drain so the run completes.
	buf := make([]byte, 4096)
	for {
		if _, err := resp.Body.Read(buf); err != nil {
			break
		}
	}

	m := s.Metrics()
	if m["prepared_misses"] != 1 || m["prepared_hits"] != 1 {
		t.Fatalf("prepared hits/misses = %d/%d, want 1/1 (stream reuses the count query's handle)",
			m["prepared_hits"], m["prepared_misses"])
	}
}

// TestPreparedCacheLRU pins the eviction bound.
func TestPreparedCacheLRU(t *testing.T) {
	c := newLRU[*kplex.Prepared](2)
	mk := func(i int) string { return fmt.Sprintf("digest%d", i) }
	opts := kplex.NewOptions(2, 6)
	p := &kplex.Prepared{}
	for i := 0; i < 3; i++ {
		c.put(preparedKey(mk(i), &opts), p)
	}
	if c.len() != 2 {
		t.Fatalf("cache holds %d, want cap 2", c.len())
	}
	if _, ok := c.get(preparedKey(mk(0), &opts)); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := c.get(preparedKey(mk(2), &opts)); !ok {
		t.Fatal("newest entry evicted")
	}
}
