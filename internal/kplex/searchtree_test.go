package kplex

// Search-tree pin: the branch-and-bound counters of every golden-corpus
// cell under the main option variants, committed as
// testdata/searchtree.json. The golden plex-set hashes catch a kernel
// change that alters the answer; this file catches one that keeps the
// answer but walks a different tree (a pivot tie broken differently, a
// bound computed over the wrong degrees, a refine skipped that was not a
// no-op). Kernel optimisations must leave it byte-for-byte unchanged.
//
// Regenerate only after an intentional change to the search itself:
//
//	go test ./internal/kplex -run TestBranchSearchTreePinned -update

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
)

// searchTreeCell is one (graph, k, q, configuration) row of the pin.
type searchTreeCell struct {
	Graph         string `json:"graph"`
	K             int    `json:"k"`
	Q             int    `json:"q"`
	Config        string `json:"config"`
	Tasks         int64  `json:"tasks"`
	TasksPrunedR1 int64  `json:"tasksPrunedR1"`
	Branches      int64  `json:"branches"`
	UBPruned      int64  `json:"ubPruned"`
	Collapses     int64  `json:"collapses"`
	Repicks       int64  `json:"repicks"`
	Emitted       int64  `json:"emitted"`
}

// searchTreeConfigs are the option variants the pin covers: the default
// framework, the Basic ablation (no R1, no R2), the FaPlexen branching, the
// two alternative include bounds, the Ours\ub ablation (no include bound)
// and the ListPlex baseline (FaPlexen branching, no bound, no R1, no R2; the
// options of baseline.ListPlexOptions, which this package cannot import).
var searchTreeConfigs = []struct {
	name string
	opts func(k, q int) Options
}{
	{"new", NewOptions},
	{"basic", BasicOptions},
	{"faplexen", func(k, q int) Options {
		o := NewOptions(k, q)
		o.Branching = BranchFaPlexen
		return o
	}},
	{"ubsortfp", func(k, q int) Options {
		o := NewOptions(k, q)
		o.UpperBound = UBSortFP
		return o
	}},
	{"ubcolor", func(k, q int) Options {
		o := NewOptions(k, q)
		o.UpperBound = UBColor
		return o
	}},
	{"noub", func(k, q int) Options {
		o := NewOptions(k, q)
		o.UpperBound = UBNone
		return o
	}},
	{"listplex", func(k, q int) Options {
		o := NewOptions(k, q)
		o.Branching = BranchFaPlexen
		o.UpperBound = UBNone
		o.UseSubtaskBound = false
		o.UsePairPruning = false
		return o
	}},
}

var searchTreePath = filepath.Join("testdata", "searchtree.json")

// TestBranchSearchTreePinned runs every golden-corpus cell sequentially
// under each configuration and compares the search counters with the
// committed pin.
func TestBranchSearchTreePinned(t *testing.T) {
	var got []searchTreeCell
	for _, cg := range gen.Corpus() {
		g := cg.Build()
		for _, kq := range goldenCombos(cg.Name) {
			for _, cfg := range searchTreeConfigs {
				opts := cfg.opts(kq[0], kq[1])
				res, err := Run(context.Background(), g, opts)
				if err != nil {
					t.Fatalf("%s k=%d q=%d %s: %v", cg.Name, kq[0], kq[1], cfg.name, err)
				}
				s := res.Stats
				got = append(got, searchTreeCell{
					Graph: cg.Name, K: kq[0], Q: kq[1], Config: cfg.name,
					Tasks: s.Tasks, TasksPrunedR1: s.TasksPrunedR1, Branches: s.Branches,
					UBPruned: s.UBPruned, Collapses: s.Collapses, Repicks: s.Repicks,
					Emitted: s.Emitted,
				})
			}
		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(searchTreePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(searchTreePath)
	if err != nil {
		t.Fatalf("missing search-tree pin (run with -update to create): %v", err)
	}
	var want []searchTreeCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt search-tree pin %s: %v", searchTreePath, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cells, the pin has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("search tree diverges\n got: %s\nwant: %s", cellString(got[i]), cellString(want[i]))
		}
	}
}

func cellString(c searchTreeCell) string { return fmt.Sprintf("%+v", c) }
