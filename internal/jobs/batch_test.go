package jobs

// Batch-job tests: a multi-item spec answered through shared traversals
// must report, per item, exactly what a standalone single-query job (and
// the raw engine) reports for that cell — including across crash/resume
// cycles, where the WAL checkpoints the whole per-seed × per-item
// aggregate vector.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/kplex"
)

// assertItemMatches compares one batch item's result against the engine
// ground truth for its cell.
func assertItemMatches(t *testing.T, item *ItemResult, ref *kplex.Aggregate) {
	t.Helper()
	if item.Count != ref.Count {
		t.Errorf("item k=%d q=%d: count = %d, want %d", item.K, item.Q, item.Count, ref.Count)
	}
	if item.MaxSize != ref.MaxSize {
		t.Errorf("item k=%d q=%d: maxSize = %d, want %d", item.K, item.Q, item.MaxSize, ref.MaxSize)
	}
	if item.PlexDigest != ref.PlexDigest() {
		t.Errorf("item k=%d q=%d: plex digest = %s, want %s (result set differs)",
			item.K, item.Q, item.PlexDigest, ref.PlexDigest())
	}
	for s, c := range ref.Histogram {
		if item.Histogram[s] != c {
			t.Errorf("item k=%d q=%d: histogram[%d] = %d, want %d", item.K, item.Q, s, item.Histogram[s], c)
		}
	}
	if len(item.Histogram) != len(ref.Histogram) {
		t.Errorf("item k=%d q=%d: histogram has %d sizes, want %d", item.K, item.Q, len(item.Histogram), len(ref.Histogram))
	}
	if len(item.TopK) != len(ref.TopK) {
		t.Fatalf("item k=%d q=%d: topk has %d entries, want %d", item.K, item.Q, len(item.TopK), len(ref.TopK))
	}
	for i := range ref.TopK {
		for j := range ref.TopK[i] {
			if item.TopK[i][j] != ref.TopK[i][j] {
				t.Fatalf("item k=%d q=%d: topk[%d] = %v, want %v", item.K, item.Q, i, item.TopK[i], ref.TopK[i])
			}
		}
	}
}

// batchSpecCells is the mixed sweep the batch-job tests run: two q cells
// sharing the k=2 traversal plus a k=3 group of its own.
var batchSpecCells = []SpecItem{
	{K: 2, Q: 6, TopN: 5},
	{K: 2, Q: 8, TopN: 3},
	{K: 3, Q: 8, TopN: 5},
}

func TestBatchJobMatchesReference(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, nil)
	defer m.Close()

	man, err := m.Submit(Spec{Graph: "corpus:planted-a", Items: batchSpecCells, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, m, man.ID); v.State != StateDone {
		t.Fatalf("final state = %s (error %q), want done", v.State, v.Error)
	}
	res, err := m.Result(man.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != len(batchSpecCells) {
		t.Fatalf("result has %d items, want %d", len(res.Items), len(batchSpecCells))
	}
	var sum int64
	for i, it := range batchSpecCells {
		ref := refAggregate(t, "corpus:planted-a", it.K, it.Q, it.TopN)
		assertItemMatches(t, &res.Items[i], ref)
		sum += ref.Count
	}
	if res.Count != sum {
		t.Errorf("top-level count = %d, want the per-item sum %d", res.Count, sum)
	}
}

// TestBatchJobCrashResume crashes a batch job mid-run under both
// scheduler names a spec may carry (committed job logs hold either; both
// run the same parallel runtime) and verifies the reopened manager resumes it to per-item results
// identical to an uninterrupted run — the WAL's per-item aggregate vector
// and the global seed-id mapping survive the round trip.
func TestBatchJobCrashResume(t *testing.T) {
	// planted-overlap yields 45 seeds per traversal group (k=2 at q=6 and
	// k=3 at q=8), 90 in total: crashing after 40 interrupts the first
	// group mid-walk, after 60 the second — so resume is exercised both
	// with a partially-skipped first group and with a fully-done group
	// ahead of the interrupted one.
	for _, crashAfter := range []int{40, 60} {
		for _, sched := range []string{"stages", "steal"} {
			crashAfter, sched := crashAfter, sched
			t.Run(fmt.Sprintf("%s/crash%d", sched, crashAfter), func(t *testing.T) {
				dir := t.TempDir()
				m1 := openTestManager(t, dir, func(c *Config) {
					c.CrashAfterSeeds = crashAfter
					c.CheckpointSeeds = 8
				})
				man, err := m1.Submit(Spec{Graph: "corpus:planted-overlap", Items: batchSpecCells, Threads: 3, Scheduler: sched})
				if err != nil {
					t.Fatal(err)
				}
				waitCrashed(t, m1)
				m1.Close()

				m2 := openTestManager(t, dir, nil)
				defer m2.Close()
				v := waitDone(t, m2, man.ID)
				if v.State != StateDone {
					t.Fatalf("resumed job ended %s (error %q), want done", v.State, v.Error)
				}
				if v.Resumes == 0 {
					t.Error("job reports zero resumes after a crash")
				}
				res, err := m2.Result(man.ID)
				if err != nil {
					t.Fatal(err)
				}
				for i, it := range batchSpecCells {
					ref := refAggregate(t, "corpus:planted-overlap", it.K, it.Q, it.TopN)
					assertItemMatches(t, &res.Items[i], ref)
				}
			})
		}
	}
}

// TestBatchJobSubmitValidation pins the spec-level guard rails.
func TestBatchJobSubmitValidation(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, nil)
	defer m.Close()
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"items-plus-single", Spec{Graph: "corpus:planted-a", K: 2, Q: 6, Items: []SpecItem{{K: 2, Q: 6}}}, "items only"},
		{"bad-item-q", Spec{Graph: "corpus:planted-a", Items: []SpecItem{{K: 2, Q: 2}}}, "Q must be"},
		{"bad-item-topn", Spec{Graph: "corpus:planted-a", Items: []SpecItem{{K: 2, Q: 6, TopN: 100000}}}, "topn"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := m.Submit(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Submit err = %v, want mention of %q", err, tc.want)
			}
		})
	}
	// The happy path still validates: one item is a legal batch.
	man, err := m.Submit(Spec{Graph: "corpus:planted-a", Items: []SpecItem{{K: 2, Q: 6}}})
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, m, man.ID); v.State != StateDone {
		t.Fatalf("1-item batch ended %s (error %q)", v.State, v.Error)
	}
	res, err := m.Result(man.ID)
	if err != nil {
		t.Fatal(err)
	}
	// A 1-item batch is still a batch: a client that submitted a vector
	// reads a vector back (with the default top-k budget applied), and the
	// top-level summary mirrors the lone item.
	if len(res.Items) != 1 {
		t.Fatalf("1-item batch reported %d result items, want 1", len(res.Items))
	}
	ref := refAggregate(t, "corpus:planted-a", 2, 6, 10)
	assertItemMatches(t, &res.Items[0], ref)
	if res.Items[0].TopN != 10 {
		t.Errorf("item topn = %d, want the default 10", res.Items[0].TopN)
	}
	if res.Count != ref.Count || res.MaxSize != ref.MaxSize {
		t.Errorf("top-level summary %d/%d, want %d/%d", res.Count, res.MaxSize, ref.Count, ref.MaxSize)
	}
}
