package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"reflect"
	"sort"

	"repro/internal/graph"
	"repro/internal/kplex"
)

// answer is everything the benchmark checks about one (graph, k, q) cell:
// count, largest size, size histogram and the largest plexes in the
// engine's top-k order (size descending, then lexicographic), so a top-n
// answer is a prefix of TopK for any n up to its length.
type answer struct {
	Count     int64         `json:"count"`
	MaxSize   int           `json:"maxSize"`
	Histogram map[int]int64 `json:"histogram"`
	TopK      [][]int       `json:"topk"`
}

// expectations maps cell keys to answers. The committed file holds every
// cell of both scales; the graphs do not depend on the workload seed, so
// the answers are valid for every seed. A cell missing from the file (a
// changed generator changes the digest in its key) is computed during
// set-up with one thread, and that time counts in setup_s.
type expectations struct {
	Cells    map[string]*answer `json:"cells"`
	computed int
}

func loadExpectations(path string) (*expectations, error) {
	e := &expectations{Cells: map[string]*answer{}}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return e, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if e.Cells == nil {
		e.Cells = map[string]*answer{}
	}
	return e, nil
}

// save writes one cell per line, sorted by key, so a regenerated file
// diffs cell by cell.
func (e *expectations) save(path string) error {
	keys := make([]string, 0, len(e.Cells))
	for k := range e.Cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString("{\"cells\": {\n")
	for i, k := range keys {
		a, err := json.Marshal(e.Cells[k])
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%q: %s", k, a)
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// cellKey names a cell by its graph's content, so an answer can never be
// checked against a different graph of the same name.
func cellKey(name, digest string, k, q int) string {
	return fmt.Sprintf("%s@%.16s/k=%d/q=%d", name, digest, k, q)
}

// get returns the answer for (g, k, q) with at least topN top-k entries
// (or all of them), computing it when the committed file lacks it.
func (e *expectations) get(name string, g graph.CSR, k, q, topN int) (*answer, error) {
	key := cellKey(name, graph.DigestHexOf(g), k, q)
	if a := e.Cells[key]; a != nil && (len(a.TopK) >= topN || int64(len(a.TopK)) == a.Count) {
		return a, nil
	}
	a, err := computeAnswer(g, k, q, topN)
	if err != nil {
		return nil, fmt.Errorf("expected answer for %s: %w", key, err)
	}
	e.Cells[key] = a
	e.computed++
	return a, nil
}

// computeAnswer enumerates the cell sequentially, once for the histogram
// (and with it count and largest size) and, when asked, once for top-k.
func computeAnswer(g graph.CSR, k, q, topN int) (*answer, error) {
	ctx := context.Background()
	opts := kplex.NewOptions(k, q)
	p, err := kplex.Prepare(g, opts)
	if err != nil {
		return nil, err
	}
	hist, res, err := kplex.SizeHistogramPrepared(ctx, p, opts)
	if err != nil {
		return nil, err
	}
	a := &answer{Count: res.Count, MaxSize: int(res.Stats.MaxPlexSize), Histogram: hist, TopK: [][]int{}}
	if topN > 0 {
		if a.TopK, _, err = kplex.EnumerateTopKPrepared(ctx, p, opts, topN); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// check compares one reply with the expected answer for the given mode
// ("count", "topk" with topN, "histogram") and describes the first
// difference, or returns "".
func (a *answer) check(mode string, topN int, count int64, maxSize int, topk [][]int, hist map[int]int64) string {
	if count != a.Count || maxSize != a.MaxSize {
		return fmt.Sprintf("count/maxSize %d/%d, want %d/%d", count, maxSize, a.Count, a.MaxSize)
	}
	switch mode {
	case "topk":
		want := a.TopK[:min(topN, len(a.TopK))]
		if len(topk) != len(want) || (len(want) > 0 && !reflect.DeepEqual(topk, want)) {
			return fmt.Sprintf("top-%d list differs from the expected one", topN)
		}
	case "histogram":
		if len(hist) != len(a.Histogram) || (len(hist) > 0 && !reflect.DeepEqual(hist, a.Histogram)) {
			return fmt.Sprintf("histogram %v, want %v", hist, a.Histogram)
		}
	}
	return ""
}
