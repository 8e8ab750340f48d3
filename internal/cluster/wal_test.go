package cluster

// Tests for the coordinator's per-range write-ahead log records: round
// trip, first-completion-wins dedupe, foreign ranges, the hard rejection
// of records from a newer schema version, and the committed fixture that
// pins the format. The other framing rules shared with the job WAL
// (torn tails, sequence gaps) are covered by the jobs package's
// TestLogFraming.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/kplex"
)

// testAgg builds a small sealed aggregate whose content identifies which
// record it came from.
func testAgg(seed int) *kplex.Aggregate {
	a := kplex.NewAggregate(5)
	a.AddPlex([]int{seed, seed + 1, seed + 2})
	return a.Snapshot()
}

func TestRangeWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), rangeWALName)
	w, err := jobs.OpenLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, rid := range []int{2, 0, 1} { // completion order ≠ range order
		if err := w.Append(&rangeRecord{Range: rid, Agg: testAgg(rid), EnumMS: float64(10 * (i + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	rep, err := replayRangeWAL(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated || rep.LastSeq != 3 || rep.enumMS != 30 {
		t.Fatalf("replay = truncated=%v lastSeq=%d enumMS=%v", rep.Truncated, rep.LastSeq, rep.enumMS)
	}
	if len(rep.aggs) != 3 {
		t.Fatalf("replayed %d ranges, want 3", len(rep.aggs))
	}
	for rid := 0; rid < 3; rid++ {
		want := testAgg(rid)
		if got := rep.aggs[rid]; got == nil || got.PlexDigest() != want.PlexDigest() {
			t.Errorf("range %d replayed digest %v, want %s", rid, got, want.PlexDigest())
		}
	}
}

func TestRangeWALDuplicateFirstWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), rangeWALName)
	w, err := jobs.OpenLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	first, second := testAgg(0), testAgg(100)
	if err := w.Append(&rangeRecord{Range: 0, Agg: first}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&rangeRecord{Range: 0, Agg: second}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	rep, err := replayRangeWAL(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.aggs) != 1 || rep.aggs[0].PlexDigest() != first.PlexDigest() {
		t.Fatalf("duplicate replay kept digest %s, want the first record's %s", rep.aggs[0].PlexDigest(), first.PlexDigest())
	}
	if rep.LastSeq != 2 {
		t.Fatalf("lastSeq = %d, want 2 (the duplicate still advances the sequence)", rep.LastSeq)
	}
}

// TestRangeWALRejectsFutureVersion: a CRC-valid range record stamped by a
// newer binary is a hard error (routed to job failure), never silent
// truncation.
func TestRangeWALRejectsFutureVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), rangeWALName)
	w, err := jobs.OpenLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&rangeRecord{Range: 0, Agg: testAgg(0)}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	future := &rangeRecord{LogHeader: jobs.LogHeader{Ver: jobs.LogVersion + 1, Seq: 2}, Range: 1, Agg: testAgg(1)}
	payload, err := json.Marshal(future)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fmt.Fprintf(f, "%08x %s\n", crc32.ChecksumIEEE(payload), payload)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := replayRangeWAL(path, 2); err == nil {
		t.Fatal("future-version record replayed without error")
	}
}

// TestRangeWALRejectsForeignRange: a record naming a range outside the
// pinned partition means the checkpoints describe a different
// decomposition; replay must refuse rather than mis-merge.
func TestRangeWALRejectsForeignRange(t *testing.T) {
	path := filepath.Join(t.TempDir(), rangeWALName)
	w, err := jobs.OpenLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&rangeRecord{Range: 5, Agg: testAgg(5)}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	if _, err := replayRangeWAL(path, 2); err == nil {
		t.Fatal("out-of-partition record replayed without error")
	}
}

// TestRangeWALFixtureReplay pins the on-disk range log format. The
// committed fixture holds the three ranges of corpus:planted-a (k=2, q=6,
// top 5) in completion order 2, 0, 1, written by RunRange. It must replay
// and merge to the single-node reference, and appending its records to a
// fresh log must reproduce the file byte for byte.
func TestRangeWALFixtureReplay(t *testing.T) {
	path := filepath.Join("testdata", rangeWALName)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replayRangeWAL(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated || rep.LastSeq != 3 || len(rep.aggs) != 3 {
		t.Fatalf("fixture replay truncated=%v lastSeq=%d ranges=%d", rep.Truncated, rep.LastSeq, len(rep.aggs))
	}
	merged := kplex.NewAggregate(5)
	for rid := 0; rid < 3; rid++ {
		merged.Merge(rep.aggs[rid])
	}
	assertSameResultSet(t, merged, refAggregate(t, "corpus:planted-a", 2, 6, 5))

	out := filepath.Join(t.TempDir(), rangeWALName)
	w, err := jobs.OpenLog(out, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.SplitAfter(strings.TrimSuffix(string(want), "\n"), "\n") {
		_, payload, _ := strings.Cut(line, " ")
		var rec rangeRecord
		if err := json.Unmarshal([]byte(payload), &rec); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-appended log differs from the fixture:\n got %q\nwant %q", got, want)
	}
}
