package server

// In-process integration tests for POST /batch: the caching invariant
// extended to batches (every batch item is one query, answered by exactly
// one of cache hit / shared duplicate / execution), the per-item NDJSON
// progress protocol, and the differential guarantee that a batch warms
// the single-query result and prepared caches (and vice versa).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// batchLineJSON mirrors batchItemResponse/batchSummary loosely: item lines
// carry "item", the summary carries "done".
type batchLineJSON struct {
	Item      *int             `json:"item"`
	K         int              `json:"k"`
	Q         int              `json:"q"`
	Mode      string           `json:"mode"`
	Count     int64            `json:"count"`
	MaxSize   int              `json:"maxSize"`
	Cached    bool             `json:"cached"`
	Shared    bool             `json:"shared"`
	Saturated bool             `json:"saturated"`
	Group     int              `json:"group"`
	TopK      [][]int          `json:"topk"`
	Histogram map[string]int64 `json:"histogram"`

	Done       *bool  `json:"done"`
	Items      int    `json:"items"`
	CacheHits  int    `json:"cacheHits"`
	SharedN    int    `json:"flightShared"`
	Executions int    `json:"executions"`
	Groups     int    `json:"groups"`
	Error      string `json:"error"`
}

// postBatch sends the body to POST /batch and returns the per-item lines
// (keyed by item index) and the summary line.
func postBatch(t *testing.T, url, body string) (map[int]batchLineJSON, batchLineJSON) {
	t.Helper()
	resp, err := http.Post(url+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /batch: status %d", resp.StatusCode)
	}
	items := make(map[int]batchLineJSON)
	var summary batchLineJSON
	sawSummary := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if sawSummary {
			t.Fatalf("line after the summary: %s", sc.Text())
		}
		var line batchLineJSON
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Item != nil:
			if _, dup := items[*line.Item]; dup {
				t.Fatalf("item %d reported twice", *line.Item)
			}
			items[*line.Item] = line
		case line.Done != nil:
			summary = line
			sawSummary = true
		default:
			t.Fatalf("unclassifiable line: %s", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawSummary {
		t.Fatal("no summary line")
	}
	return items, summary
}

// TestBatchEndToEnd answers a mixed sweep (two k groups, duplicate items,
// all three modes) and checks every item against the committed goldens,
// the NDJSON protocol, and the per-member caching invariant.
func TestBatchEndToEnd(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	g26 := readGolden(t, "planted-a", 2, 6)
	g38 := readGolden(t, "planted-a", 3, 8)

	body := `{"graph":"corpus:planted-a","items":[
		{"k":2,"q":6,"mode":"count"},
		{"k":3,"q":8,"mode":"count"},
		{"k":2,"q":6,"mode":"count"},
		{"k":2,"q":6,"mode":"topk","topn":3},
		{"k":2,"q":8,"mode":"histogram"}
	]}`
	items, summary := postBatch(t, hs.URL, body)
	if len(items) != 5 {
		t.Fatalf("got %d item lines, want 5", len(items))
	}
	if done := summary.Done; done == nil || !*done {
		t.Fatalf("summary not done: %+v", summary)
	}
	if summary.Items != 5 || summary.CacheHits != 0 || summary.Executions != 4 {
		t.Errorf("summary %+v: want items=5 cacheHits=0 executions=4", summary)
	}

	if got := items[0]; got.Count != g26.Count || got.MaxSize != g26.MaxSize || got.Cached || got.Shared {
		t.Errorf("item 0: %+v, golden %+v", got, g26)
	}
	if got := items[1]; got.Count != g38.Count || got.MaxSize != g38.MaxSize {
		t.Errorf("item 1: %+v, golden %+v", got, g38)
	}
	if got := items[2]; !got.Shared || got.Count != g26.Count {
		t.Errorf("duplicate item 2 not marked shared: %+v", got)
	}
	if got := items[3]; len(got.TopK) == 0 || len(got.TopK[0]) != g26.MaxSize {
		t.Errorf("topk item 3: %+v, want leading plex of size %d", got, g26.MaxSize)
	}
	var histSum int64
	for _, c := range items[4].Histogram {
		histSum += c
	}
	if items[4].Count != histSum {
		t.Errorf("histogram item 4 sums to %d, count %d", histSum, items[4].Count)
	}

	// Equal-k items shared one traversal; the k=3 item walked its own.
	if items[0].Group != items[3].Group || items[0].Group == items[1].Group {
		t.Errorf("traversal groups: %d %d %d (want 0/3 equal, 1 distinct)",
			items[0].Group, items[1].Group, items[3].Group)
	}
	if summary.Groups != 2 {
		t.Errorf("summary groups = %d, want 2", summary.Groups)
	}

	// The caching invariant, counted per batch member.
	m := stats(t, hs.URL)
	if m["queries"] != 5 || m["batches"] != 1 {
		t.Errorf("queries=%d batches=%d, want 5 and 1", m["queries"], m["batches"])
	}
	if got := m["cache_hits"] + m["flight_shared"] + m["executions"]; got != m["queries"] {
		t.Errorf("cache_hits(%d) + flight_shared(%d) + executions(%d) = %d, want queries=%d",
			m["cache_hits"], m["flight_shared"], m["executions"], got, m["queries"])
	}
	if m["executions"] != 4 || m["flight_shared"] != 1 {
		t.Errorf("executions=%d flight_shared=%d, want 4 and 1", m["executions"], m["flight_shared"])
	}
	// Two groups were prepared, neither from the prepared cache.
	if m["prepared_misses"] != 2 || m["prepared_hits"] != 0 {
		t.Errorf("prepared_misses=%d prepared_hits=%d, want 2 and 0", m["prepared_misses"], m["prepared_hits"])
	}
}

// TestBatchWarmsSingleQueryCaches pins the differential caching
// guarantee in both directions: a batch fills the single-query result
// cache (an identical later /query is a pure cache hit) and reuses
// results /query already cached (the batch item reports cached).
func TestBatchWarmsSingleQueryCaches(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	// Batch first: its items must warm the single-query path.
	body := `{"graph":"corpus:sbm-blocks","items":[
		{"k":2,"q":6,"mode":"count"},
		{"k":2,"q":8,"mode":"count"}
	]}`
	items, _ := postBatch(t, hs.URL, body)
	if items[0].Cached || items[1].Cached {
		t.Fatalf("cold batch reported cached items: %+v", items)
	}
	code, resp := postQuery(t, hs.URL, `{"graph":"corpus:sbm-blocks","k":2,"q":6,"mode":"count"}`)
	if code != http.StatusOK || !resp.Cached {
		t.Errorf("single query after batch: status %d cached=%v, want a cache hit", code, resp.Cached)
	}
	if resp.Count != items[0].Count {
		t.Errorf("cached single-query count %d, batch reported %d", resp.Count, items[0].Count)
	}
	m := stats(t, hs.URL)
	if m["executions"] != 2 {
		t.Errorf("executions = %d, want 2 (the single query must not re-run)", m["executions"])
	}
	// The single query's (k, q) cell equals the batch group's loosest cell,
	// so even its prologue would have been a prepared-cache hit.
	if m["prepared_misses"] != 1 {
		t.Errorf("prepared_misses = %d, want 1 (one shared group prologue)", m["prepared_misses"])
	}

	// Converse direction: a fresh cell cached by /query shows up as a
	// cache hit inside a later batch.
	code, first := postQuery(t, hs.URL, `{"graph":"corpus:sbm-blocks","k":3,"q":8,"mode":"count"}`)
	if code != http.StatusOK {
		t.Fatalf("seed query: status %d", code)
	}
	items, summary := postBatch(t, hs.URL, `{"graph":"corpus:sbm-blocks","items":[
		{"k":3,"q":8,"mode":"count"},
		{"k":3,"q":10,"mode":"count"}
	]}`)
	if !items[0].Cached || items[0].Count != first.Count {
		t.Errorf("batch item 0 should be served from the /query-filled cache: %+v", items[0])
	}
	if items[1].Cached {
		t.Errorf("batch item 1 reported cached on a cold cell")
	}
	if summary.CacheHits != 1 || summary.Executions != 1 {
		t.Errorf("summary %+v: want cacheHits=1 executions=1", summary)
	}
	m = stats(t, hs.URL)
	if got := m["cache_hits"] + m["flight_shared"] + m["executions"]; got != m["queries"] {
		t.Errorf("invariant broken: %d != queries %d", got, m["queries"])
	}
}

// TestBatchTwinRequestsShareCache fires two identical batches at a
// capacity-1 server: whichever blocks in admission must, on waking,
// re-check the result cache its twin filled and answer every item as a
// hit instead of re-walking — so the pair costs exactly one execution per
// unique item.
func TestBatchTwinRequestsShareCache(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxConcurrent: 1})
	body := `{"graph":"corpus:ba-hubs","items":[{"k":2,"q":6,"mode":"count"},{"k":2,"q":8,"mode":"count"}]}`
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, summary := postBatch(t, hs.URL, body)
			if done := summary.Done; done == nil || !*done {
				t.Errorf("twin batch not done: %+v", summary)
			}
		}()
	}
	wg.Wait()
	m := stats(t, hs.URL)
	if m["executions"] != 2 || m["cache_hits"] != 2 {
		t.Errorf("executions=%d cache_hits=%d, want 2 and 2 (the blocked twin must reuse the cache)",
			m["executions"], m["cache_hits"])
	}
	if got := m["cache_hits"] + m["flight_shared"] + m["executions"]; got != m["queries"] {
		t.Errorf("invariant broken: %d != queries %d", got, m["queries"])
	}
}

// TestBatchSaturatedTopKNotCached pins the cache-consistency rule for the
// engine's top-k saturation early exit: an all-top-k batch group that
// stops its walk early reports an exact top-k list but a prefix count, so
// its results must NOT warm the single-query result cache — a later
// /query for the same cell must run the full enumeration and report the
// full count.
func TestBatchSaturatedTopKNotCached(t *testing.T) {
	// A 20-clique over a sparse ring: the (q-k)-core cut leaves exactly
	// the clique's seeds, and with threads=1 the walk deterministically
	// saturates after the unique maximal 2-plex is found.
	dir := t.TempDir()
	var sb strings.Builder
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			fmt.Fprintf(&sb, "%d %d\n", i, j)
		}
	}
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "%d %d\n", 20+i, 20+(i+1)%300)
	}
	if err := os.WriteFile(filepath.Join(dir, "clique.txt"), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{DataDir: dir})

	items, summary := postBatch(t, hs.URL, `{"graph":"clique.txt","threads":1,"items":[{"k":2,"q":10,"mode":"topk","topn":1}]}`)
	if done := summary.Done; done == nil || !*done {
		t.Fatalf("batch not done: %+v", summary)
	}
	if len(items[0].TopK) != 1 || len(items[0].TopK[0]) != 20 {
		t.Fatalf("batch topk %v, want the 20-clique", items[0].TopK)
	}
	if !items[0].Saturated {
		t.Error("saturated item line does not carry saturated=true; the client cannot tell the count is a lower bound")
	}

	code, resp := postQuery(t, hs.URL, `{"graph":"clique.txt","k":2,"q":10,"mode":"topk","topn":1,"threads":1}`)
	if code != http.StatusOK {
		t.Fatalf("follow-up query: status %d", code)
	}
	if resp.Cached {
		t.Error("saturated batch result warmed the cache; the follow-up query must execute in full")
	}
	if resp.Count != 1 {
		t.Errorf("follow-up full count = %d, want 1 (the unique maximal 2-plex)", resp.Count)
	}
	m := stats(t, hs.URL)
	if m["executions"] != 2 {
		t.Errorf("executions = %d, want 2 (batch walk + full single query)", m["executions"])
	}
}

// TestBatchRejections pins the request-level validation: bad items fail
// the whole batch with 400 before any NDJSON is written.
func TestBatchRejections(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"no-items":    `{"graph":"corpus:planted-a","items":[]}`,
		"stream-item": `{"graph":"corpus:planted-a","items":[{"k":2,"q":6,"mode":"stream"}]}`,
		"bad-mode":    `{"graph":"corpus:planted-a","items":[{"k":2,"q":6,"mode":"nope"}]}`,
		"bad-q":       `{"graph":"corpus:planted-a","items":[{"k":2,"q":2,"mode":"count"}]}`,
		"bad-json":    `{"graph":`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(hs.URL+"/batch", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}
	resp, err := http.Post(hs.URL+"/batch", "application/json",
		strings.NewReader(`{"graph":"corpus:no-such","items":[{"k":2,"q":6,"mode":"count"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d, want 404", resp.StatusCode)
	}
}

// TestBatchSweepAcrossGraphs runs a larger sweep on every corpus graph the
// registry serves, checking count items against the committed goldens —
// the server-side differential companion of the engine's grid.
func TestBatchSweepAcrossGraphs(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	for _, cell := range []struct {
		name string
		k, q int
	}{
		{"planted-overlap", 2, 6},
		{"chunglu-tail", 3, 8},
		{"ws-ring", 2, 6},
	} {
		want := readGolden(t, cell.name, cell.k, cell.q)
		body := fmt.Sprintf(`{"graph":"corpus:%s","items":[{"k":%d,"q":%d,"mode":"count"},{"k":%d,"q":%d,"mode":"topk","topn":2}]}`,
			cell.name, cell.k, cell.q, cell.k, cell.q)
		items, summary := postBatch(t, hs.URL, body)
		if done := summary.Done; done == nil || !*done {
			t.Fatalf("%s: batch not done: %+v", cell.name, summary)
		}
		if items[0].Count != want.Count || items[0].MaxSize != want.MaxSize {
			t.Errorf("%s: item count=%d maxSize=%d, golden %d/%d",
				cell.name, items[0].Count, items[0].MaxSize, want.Count, want.MaxSize)
		}
	}
	m := stats(t, hs.URL)
	if got := m["cache_hits"] + m["flight_shared"] + m["executions"]; got != m["queries"] {
		t.Errorf("invariant broken: %d != queries %d", got, m["queries"])
	}
}

// TestBatchSchedulerAuto: a batch that asks for scheduler:"auto" is tuned
// like a query, once per traversal group from that group's predicted
// cost, and the tuning leaves every answer as the goldens have it.
func TestBatchSchedulerAuto(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	g26 := readGolden(t, "planted-a", 2, 6)
	g38 := readGolden(t, "planted-a", 3, 8)

	items, summary := postBatch(t, hs.URL, `{"graph":"corpus:planted-a","scheduler":"auto","items":[
		{"k":2,"q":6,"mode":"count"},
		{"k":3,"q":8,"mode":"count"}
	]}`)
	if summary.Groups != 2 {
		t.Fatalf("groups = %d, want 2", summary.Groups)
	}
	if items[0].Count != g26.Count || items[1].Count != g38.Count {
		t.Fatalf("counts %d, %d; goldens %d, %d", items[0].Count, items[1].Count, g26.Count, g38.Count)
	}
	if m := stats(t, hs.URL); m["auto_tuned"] != 2 {
		t.Fatalf("auto_tuned = %d after a two-group auto batch, want 2", m["auto_tuned"])
	}
}
