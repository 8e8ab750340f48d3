package cluster

// TestRangeManifestFixtureRecovery pins the on-disk distributed job
// format. The committed directory under testdata/jobdirs was written by a
// real coordinator run on corpus:planted-a (k=2, q=6, topn=5, 4 ranges)
// that was shut down after two ranges completed: its manifest pins the
// digest and partition, and ranges.ndjson holds the two finished ranges. A
// coordinator opened over a copy must resume the job, lease only the two
// missing ranges, and merge the single-node reference answer.

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRangeManifestFixtureRecovery(t *testing.T) {
	const id = "d34a9ab98d614"
	ref := refAggregate(t, "corpus:planted-a", 2, 6, 5)
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "jobdirs"))); err != nil {
		t.Fatal(err)
	}

	fw := newFakeWorker(t)
	c := openTestCoordinator(t, dir, fw.url())
	if got := c.Counters().Resumed.Load(); got != 1 {
		t.Errorf("resumed counter = %d, want 1", got)
	}
	v := waitDone(t, c, id)
	if v.State != "done" {
		t.Fatalf("recovered job ended %s (%q), want done", v.State, v.Error)
	}
	if v.Resumes != 1 || v.RangesDone != len(v.Ranges) || len(v.Ranges) != 4 {
		t.Errorf("final manifest: resumes %d, %d/%d ranges, want 1 and 4/4", v.Resumes, v.RangesDone, len(v.Ranges))
	}
	// Ranges 0 and 1 ([0,11) and [11,22)) were checkpointed before the
	// shutdown; only ranges 2 and 3 may run again.
	for lo, want := range map[int]int{0: 0, 11: 0, 22: 1, 33: 1} {
		if got := fw.runCount(lo); got != want {
			t.Errorf("range at %d launched %d times, want %d", lo, got, want)
		}
	}
	res, err := c.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	assertResultMatchesRef(t, res, ref)
}
