package jobs

// TestManifestFixtureRecovery pins the on-disk job directory format. The
// committed directories under testdata/jobdirs were written by real jobs
// on corpus:planted-a: a single query and a three-item batch, each
// crashed after a few checkpoints; a finished job with its result.json;
// and a job that never left the queue. A manager opened over a copy must
// recover each one to the right state and finish it with the engine's
// reference answer.

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

func TestManifestFixtureRecovery(t *testing.T) {
	const (
		single  = "j1a0334bcb44d" // checkpointed k=2 q=6 topn=5
		batch   = "j7d211e803c9f" // checkpointed batchSpecCells
		done    = "jaea22bda1fdf" // done k=3 q=8 topn=4
		queued  = "j8fdc4d381dfd" // queued k=2 q=7 topn=3
		graphID = "corpus:planted-a"
	)
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "jobdirs"))); err != nil {
		t.Fatal(err)
	}

	// Hold every run at admission so the recovered states can be read
	// before any job moves on.
	gate := make(chan struct{})
	m := openTestManager(t, dir, func(c *Config) {
		c.Admit = func(ctx context.Context, _ string) (func(), error) {
			select {
			case <-gate:
				return func() {}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	})
	defer m.Close()

	if got := m.Counters().Resumed.Load(); got != 2 {
		t.Errorf("resumed counter = %d, want 2 (the two checkpointed jobs)", got)
	}
	for _, tc := range []struct {
		id      string
		state   State
		resumes int
		partial bool // recovered with some but not all seeds done
	}{
		{single, StateQueued, 1, true},
		{batch, StateQueued, 1, true},
		{done, StateDone, 0, false},
		{queued, StateQueued, 0, false},
	} {
		v, err := m.Get(tc.id)
		if err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		if v.State != tc.state || v.Resumes != tc.resumes {
			t.Errorf("%s recovered as %s with %d resumes, want %s with %d", tc.id, v.State, v.Resumes, tc.state, tc.resumes)
		}
		if tc.partial && (v.SeedsDone == 0 || v.SeedsDone >= v.TotalSeeds) {
			t.Errorf("%s recovered %d/%d seeds, want a strict partial", tc.id, v.SeedsDone, v.TotalSeeds)
		}
	}
	// The finished job answers at once, before any run.
	res, err := m.Result(done)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, res, refAggregate(t, graphID, 3, 8, 4))

	close(gate)
	for _, id := range []string{single, batch, queued} {
		if v := waitDone(t, m, id); v.State != StateDone {
			t.Fatalf("%s ended %s (%q), want done", id, v.State, v.Error)
		}
	}
	for _, tc := range []struct {
		id      string
		k, q, n int
	}{{single, 2, 6, 5}, {queued, 2, 7, 3}} {
		res, err := m.Result(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesReference(t, res, refAggregate(t, graphID, tc.k, tc.q, tc.n))
	}
	res, err = m.Result(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != len(batchSpecCells) {
		t.Fatalf("batch result has %d items, want %d", len(res.Items), len(batchSpecCells))
	}
	for i, it := range batchSpecCells {
		assertItemMatches(t, &res.Items[i], refAggregate(t, graphID, it.K, it.Q, it.TopN))
	}
}
