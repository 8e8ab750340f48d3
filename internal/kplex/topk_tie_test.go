package kplex

// Tie-semantics grid for top-k reporting. EnumerateTopK and the batch
// layer share topkOffer/topkSorted, and this file pins the semantics both
// depend on: among size-tied plexes the lexicographically smallest vertex
// sequences are kept, reported size-descending then ascending — and the
// answer is invariant to discovery order. That invariance is what lets the
// dense-kernel seed path, the merge path, and all three schedulers (each
// of which permutes discovery order) report byte-identical top-k lists.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/gen"
)

// TestTopkOfferOrderInvariance feeds a crafted, heavily size-tied plex set
// to topkOffer in many shuffled discovery orders and requires the same
// topkSorted answer every time.
func TestTopkOfferOrderInvariance(t *testing.T) {
	// 12 sets: four sizes × three size-tied members each.
	var plexes [][]int
	for size := 3; size <= 6; size++ {
		for v := 0; v < 3; v++ {
			p := make([]int, size)
			for i := range p {
				p[i] = v*10 + i
			}
			plexes = append(plexes, p)
		}
	}
	for _, topN := range []int{1, 2, 4, 5, 11, 12, 20} {
		var want [][]int
		r := rand.New(rand.NewSource(42))
		for trial := 0; trial < 50; trial++ {
			order := r.Perm(len(plexes))
			h := make(plexHeap, 0, topN)
			for _, idx := range order {
				h.topkOffer(plexes[idx], topN)
			}
			got := h.topkSorted()
			if want == nil {
				want = got
				// Sanity: sizes descending, ties ascending lexicographically.
				for i := 1; i < len(want); i++ {
					a, b := want[i-1], want[i]
					if len(a) < len(b) || (len(a) == len(b) && lexGreater(a, b)) {
						t.Fatalf("topN=%d: unsorted output at %d: %v before %v", topN, i, a, b)
					}
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("topN=%d trial %d: discovery order changed the answer:\ngot  %v\nwant %v", topN, trial, got, want)
			}
		}
	}
}

// TestTopKTieGrid is the end-to-end grid: corpus graphs × (k, q) × the
// three schedulers × dense/merge seed kernels, each compared member-wise
// against the batch path. regular-flat and ws-ring produce many size-tied
// plexes by construction, so a tie-order drift in any execution path shows
// up as a list mismatch here.
func TestTopKTieGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep")
	}
	graphs := []string{"regular-flat", "ws-ring", "gnp-dense"}
	cells := [][2]int{{2, 5}, {3, 7}}
	const topN = 8

	for _, name := range graphs {
		g := gen.CorpusGraphByName(name).Build()
		for _, cell := range cells {
			k, q := cell[0], cell[1]
			var want [][]int
			for _, sched := range []SchedulerStyle{SchedulerStages, SchedulerSteal} {
				for _, crossover := range []int{0, -1} { // dense default vs merge-only
					label := fmt.Sprintf("%s k=%d q=%d sched=%v crossover=%d", name, k, q, sched, crossover)
					opts := NewOptions(k, q)
					opts.Threads = 4
					opts.Scheduler = sched
					opts.TaskTimeout = 100 * time.Microsecond // force splitting so order really varies
					opts.denseCrossover = crossover
					top, _, err := EnumerateTopK(context.Background(), g, opts, topN)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if want == nil {
						want = top
					} else if !reflect.DeepEqual(top, want) {
						t.Fatalf("%s: top-k drifted:\ngot  %v\nwant %v", label, top, want)
					}

					// Batch path over the same cell must agree exactly.
					bopts := NewOptions(k, q)
					bopts.Threads = 4
					bopts.Scheduler = sched
					bopts.denseCrossover = crossover
					res, err := RunBatch(context.Background(), g, []BatchQuery{
						{Opts: bopts, Mode: BatchTopK, TopN: topN},
					})
					if err != nil {
						t.Fatalf("%s batch: %v", label, err)
					}
					if !reflect.DeepEqual(res[0].TopK, want) {
						t.Fatalf("%s: batch top-k disagrees with EnumerateTopK:\ngot  %v\nwant %v", label, res[0].TopK, want)
					}
				}
			}
		}
	}
}
