package kplex

// Golden regression corpus: exact enumeration outputs for the seeded
// generator graphs of gen.Corpus(), committed under testdata/golden/ as
// (count, max size, SHA-256 of the canonically sorted plex set). Future
// performance refactors diff against these files — a pruning rule that
// silently drops or duplicates plexes changes the hash even when the count
// happens to survive.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/kplex -run TestGolden -update

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/sink"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden enumeration outputs")

// goldenCase is one (graph, k, q) cell of the corpus.
type goldenCase struct {
	Graph   string `json:"graph"`
	K       int    `json:"k"`
	Q       int    `json:"q"`
	Count   int64  `json:"count"`
	MaxSize int    `json:"maxSize"`
	SHA256  string `json:"sha256"`
}

// goldenCombos returns the (k, q) pairs recorded for a corpus graph. The
// defaults probe a moderate and a strict threshold; the overrides keep
// every graph's cases non-trivial (the dense GNP and the random regular
// graph have no large plexes at the default thresholds).
func goldenCombos(name string) [][2]int {
	switch name {
	case "gnp-dense":
		return [][2]int{{2, 6}, {3, 7}}
	case "regular-flat":
		return [][2]int{{2, 4}, {3, 6}}
	default:
		return [][2]int{{2, 6}, {3, 8}}
	}
}

func goldenPath(c goldenCase) string {
	return filepath.Join("testdata", "golden",
		fmt.Sprintf("%s_k%d_q%d.json", c.Graph, c.K, c.Q))
}

// canonicalHash returns the SHA-256 of the result set in canonical order:
// each plex ascending (the OnPlex contract), the set sorted by size
// descending then lexicographically.
func canonicalHash(plexes [][]int) string {
	sink.SortPlexes(plexes)
	h := sha256.New()
	line := make([]byte, 0, 128)
	for _, p := range plexes {
		line = line[:0]
		for i, v := range p {
			if i > 0 {
				line = append(line, ' ')
			}
			line = strconv.AppendInt(line, int64(v), 10)
		}
		line = append(line, '\n')
		h.Write(line)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// enumerateGoldenCase runs one cell's enumeration — sequential unless exec
// sets parallel knobs — and fills in the measured fields.
func enumerateGoldenCase(t *testing.T, cg gen.CorpusGraph, k, q int, exec func(*Options)) goldenCase {
	t.Helper()
	g := cg.Build()
	var mu sync.Mutex
	var plexes [][]int
	opts := NewOptions(k, q)
	if exec != nil {
		exec(&opts)
	}
	opts.OnPlex = func(p []int) {
		mu.Lock()
		plexes = append(plexes, append([]int(nil), p...))
		mu.Unlock()
	}
	res, err := Run(context.Background(), g, opts)
	if err != nil {
		t.Fatalf("%s k=%d q=%d: %v", cg.Name, k, q, err)
	}
	if int64(len(plexes)) != res.Count {
		t.Fatalf("%s k=%d q=%d: collected %d plexes, Result.Count=%d",
			cg.Name, k, q, len(plexes), res.Count)
	}
	return goldenCase{
		Graph:   cg.Name,
		K:       k,
		Q:       q,
		Count:   res.Count,
		MaxSize: int(res.Stats.MaxPlexSize),
		SHA256:  canonicalHash(plexes),
	}
}

// readGoldenCase loads the committed golden file matching c's cell.
func readGoldenCase(t *testing.T, c goldenCase) goldenCase {
	t.Helper()
	data, err := os.ReadFile(goldenPath(c))
	if err != nil {
		t.Fatalf("missing golden file (run TestGoldenCorpus with -update to create): %v", err)
	}
	var want goldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", goldenPath(c), err)
	}
	return want
}

// goldenBatch is the batch-mode golden document of one corpus graph: the
// per-cell digests of a multi-cell batch answered by shared traversals.
// Committed as testdata/golden/<graph>_batch.json; regenerate with
// -update after an intentional change.
type goldenBatch struct {
	Graph string       `json:"graph"`
	Cells []goldenCase `json:"cells"`
}

func goldenBatchPath(name string) string {
	return filepath.Join("testdata", "golden", name+"_batch.json")
}

// enumerateGoldenBatch answers every cell of batchGridCells(name) through
// one EnumerateBatch call (count members with plex collectors) and
// returns the per-cell digests.
func enumerateGoldenBatch(t *testing.T, cg gen.CorpusGraph) goldenBatch {
	t.Helper()
	g := cg.Build()
	cells := batchGridCells(cg.Name)
	queries := make([]BatchQuery, len(cells))
	plexes := make([][][]int, len(cells))
	for i, kq := range cells {
		i := i
		opts := NewOptions(kq[0], kq[1])
		opts.OnPlex = func(p []int) { plexes[i] = append(plexes[i], append([]int(nil), p...)) }
		queries[i] = BatchQuery{Opts: opts, Mode: BatchCount}
	}
	results, err := RunBatch(context.Background(), g, queries)
	if err != nil {
		t.Fatalf("%s: %v", cg.Name, err)
	}
	doc := goldenBatch{Graph: cg.Name}
	for i, kq := range cells {
		doc.Cells = append(doc.Cells, goldenCase{
			Graph:   cg.Name,
			K:       kq[0],
			Q:       kq[1],
			Count:   results[i].Count,
			MaxSize: int(results[i].Stats.MaxPlexSize),
			SHA256:  canonicalHash(plexes[i]),
		})
	}
	return doc
}

// TestGoldenCorpusBatch pins the batch path against its own committed
// digests: one shared-traversal batch per corpus graph, each cell's
// (count, max size, canonical plex-set hash) compared to
// testdata/golden/<graph>_batch.json.
func TestGoldenCorpusBatch(t *testing.T) {
	for _, cg := range gen.Corpus() {
		cg := cg
		t.Run(cg.Name, func(t *testing.T) {
			t.Parallel()
			got := enumerateGoldenBatch(t, cg)
			path := goldenBatchPath(cg.Name)
			if *updateGolden {
				data, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			var want goldenBatch
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("corrupt golden file %s: %v", path, err)
			}
			if len(got.Cells) != len(want.Cells) {
				t.Fatalf("cell count %d, golden has %d", len(got.Cells), len(want.Cells))
			}
			for i := range got.Cells {
				if got.Cells[i] != want.Cells[i] {
					t.Errorf("cell %d mismatch\n got: %+v\nwant: %+v", i, got.Cells[i], want.Cells[i])
				}
			}
		})
	}
}

// TestGoldenCorpusOneElementBatch re-verifies every committed single-query
// golden file through the batch path with a 1-element batch, pinning the
// single-query and batch semantics against each other: a divergence in
// either path breaks exactly one of the two golden suites.
func TestGoldenCorpusOneElementBatch(t *testing.T) {
	for _, cg := range gen.Corpus() {
		for _, kq := range goldenCombos(cg.Name) {
			cg, k, q := cg, kq[0], kq[1]
			t.Run(fmt.Sprintf("%s/k%d_q%d", cg.Name, k, q), func(t *testing.T) {
				t.Parallel()
				g := cg.Build()
				var plexes [][]int
				opts := NewOptions(k, q)
				opts.OnPlex = func(p []int) { plexes = append(plexes, append([]int(nil), p...)) }
				results, err := RunBatch(context.Background(), g, []BatchQuery{{Opts: opts, Mode: BatchCount}})
				if err != nil {
					t.Fatal(err)
				}
				got := goldenCase{
					Graph:   cg.Name,
					K:       k,
					Q:       q,
					Count:   results[0].Count,
					MaxSize: int(results[0].Stats.MaxPlexSize),
					SHA256:  canonicalHash(plexes),
				}
				want := readGoldenCase(t, got)
				if got != want {
					t.Errorf("1-element batch diverges from the single-query golden\n got: %+v\nwant: %+v", got, want)
				}
			})
		}
	}
}

func TestGoldenCorpus(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, cg := range gen.Corpus() {
		for _, kq := range goldenCombos(cg.Name) {
			cg, k, q := cg, kq[0], kq[1]
			t.Run(fmt.Sprintf("%s/k%d_q%d", cg.Name, k, q), func(t *testing.T) {
				t.Parallel()
				got := enumerateGoldenCase(t, cg, k, q, nil)
				path := goldenPath(got)
				if *updateGolden {
					data, err := json.MarshalIndent(got, "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update to create): %v", err)
				}
				var want goldenCase
				if err := json.Unmarshal(data, &want); err != nil {
					t.Fatalf("corrupt golden file %s: %v", path, err)
				}
				if got != want {
					t.Errorf("golden mismatch\n got: %+v\nwant: %+v", got, want)
				}
				// Both scheduler constants run the same parallel claim and
				// must reproduce the sequential golden digest.
				for _, sched := range []SchedulerStyle{SchedulerStages, SchedulerSteal} {
					if par := enumerateGoldenCase(t, cg, k, q, func(o *Options) {
						o.Threads, o.TaskTimeout, o.Scheduler = 3, 20*time.Microsecond, sched
					}); par != want {
						t.Errorf("%v: parallel run diverges from the golden\n got: %+v\nwant: %+v", sched, par, want)
					}
				}
			})
		}
	}
}
