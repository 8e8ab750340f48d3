package kplex

// Top-N retrieval of the largest maximal k-plexes. Community-detection
// pipelines (the paper's motivating application) usually inspect only the
// few largest structures, while the full enumeration can return billions;
// this wrapper keeps a bounded sorted list over the stream of results so
// memory stays O(N * plex size) regardless of the result-set size.

import (
	"context"
	"fmt"

	"repro/internal/graph"
)

// plexBefore orders plexes size-descending, then lexicographically
// ascending — the order EnumerateTopK reports and ties never recur in
// (each maximal plex is enumerated exactly once).
func plexBefore(x, y []int) bool {
	if len(x) != len(y) {
		return len(x) > len(y)
	}
	for i := range x {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}

// insertTopK places p into top, the list of the topN (>= 1) largest
// plexes kept in plexBefore order, and returns the list. A plex that does
// not beat the last entry of a full list is rejected after one comparison,
// so among size-tied plexes the lexicographically smallest are kept and
// the answer does not depend on discovery order. owned marks a slice the
// list may keep without copying (merge paths). Every top-k answer —
// EnumerateTopK, a batch member, a SeedCollector member — is an
// Aggregate's list kept by this function.
func insertTopK(top [][]int, topN int, p []int, owned bool) [][]int {
	if len(top) == topN && !plexBefore(p, top[topN-1]) {
		return top
	}
	// Binary search for the insertion point.
	lo, hi := 0, len(top)
	for lo < hi {
		mid := (lo + hi) / 2
		if plexBefore(top[mid], p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if !owned {
		p = append([]int(nil), p...)
	}
	if len(top) < topN {
		top = append(top, nil)
	}
	copy(top[lo+1:], top[lo:])
	top[lo] = p
	return top
}

// EnumerateTopK returns the topN largest maximal k-plexes with at least q
// vertices, sorted by decreasing size (ties by ascending vertex sequence).
// The run uses opts as given except for OnPlex, which EnumerateTopK owns;
// the returned Result carries the full enumeration counters (Count is the
// total number of maximal k-plexes seen, not topN).
func EnumerateTopK(ctx context.Context, g graph.CSR, opts Options, topN int) ([][]int, Result, error) {
	if topN < 1 {
		return nil, Result{}, fmt.Errorf("kplex: topN must be >= 1, got %d", topN)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, Result{}, err
		}
	}
	p, err := Prepare(g, opts)
	if err != nil {
		return nil, Result{}, err
	}
	return EnumerateTopKPrepared(ctx, p, opts, topN)
}

// EnumerateTopKPrepared is EnumerateTopK against a Prepared handle,
// skipping the run prologue.
func EnumerateTopKPrepared(ctx context.Context, p *Prepared, opts Options, topN int) ([][]int, Result, error) {
	if topN < 1 {
		return nil, Result{}, fmt.Errorf("kplex: topN must be >= 1, got %d", topN)
	}
	agg, res, err := aggregatePrepared(ctx, p, opts, topN)
	if err != nil {
		return nil, res, err
	}
	return agg.TopK, res, nil
}
