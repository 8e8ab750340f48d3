package jobs

// Replay regression tests for the job WAL's record semantics: ambiguous
// single/batch layouts, arity flips and repeated seeds must be hard
// errors — never silent torn-tail truncation, which would resume from an
// older checkpoint underneath durable newer data. Legacy unversioned
// records must keep replaying, and the committed fixtures pin the format.
// The framing rules shared with the range log are covered by
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

	"repro/internal/kplex"
)

// sealedAgg builds a small sealed aggregate for hand-written records.
func sealedAgg(seed int) *kplex.Aggregate {
	a := kplex.NewAggregate(3)
	a.AddPlex([]int{seed, seed + 1, seed + 2})
	return a.Snapshot()
}

// writeWALLine appends one correctly CRC-framed line with the payload
// given verbatim, bypassing Append's version/seq stamping.
func writeWALLine(t *testing.T, path, payload string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := fmt.Fprintf(f, "%08x %s\n", crc32.ChecksumIEEE([]byte(payload)), payload); err != nil {
		t.Fatal(err)
	}
}

// TestWALReplayRejectsFutureVersion: a CRC-valid job record stamped by a
// newer binary is a hard error, never silent truncation.
func TestWALReplayRejectsFutureVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), walName)
	w, err := OpenLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&walRecord{Seeds: []int{0}, Agg: sealedAgg(0)}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	writeWALLine(t, path, fmt.Sprintf(`{"v":%d,"seq":2,"seeds":[1],"agg":{"count":1,"topn":3},"enumMs":1}`, LogVersion+1))

	if _, err := replayWAL(path); err == nil {
		t.Fatal("future-version record replayed without error")
	}
}

func TestWALReplayRejectsAggAndItemsTogether(t *testing.T) {
	path := filepath.Join(t.TempDir(), walName)
	writeWALLine(t, path, `{"v":1,"seq":1,"seeds":[0],"agg":{"count":1,"topn":3},"items":[{"count":1,"topn":3}],"enumMs":1}`)

	if _, err := replayWAL(path); err == nil {
		t.Fatal("record with both agg and items replayed without error")
	}
}

func TestWALReplayRejectsArityFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), walName)
	w, err := OpenLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&walRecord{Seeds: []int{0}, Items: []*kplex.Aggregate{sealedAgg(0), sealedAgg(10)}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&walRecord{Seeds: []int{1}, Items: []*kplex.Aggregate{sealedAgg(1)}}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	if _, err := replayWAL(path); err == nil {
		t.Fatal("item-arity flip mid-log replayed without error")
	}
}

func TestWALReplayRejectsRepeatedAndNegativeSeeds(t *testing.T) {
	for name, lines := range map[string][]string{
		"repeated": {
			`{"v":1,"seq":1,"seeds":[4],"agg":{"count":1,"topn":3},"enumMs":1}`,
			`{"v":1,"seq":2,"seeds":[4],"agg":{"count":2,"topn":3},"enumMs":2}`,
		},
		"negative": {
			`{"v":1,"seq":1,"seeds":[-3],"agg":{"count":1,"topn":3},"enumMs":1}`,
		},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), walName)
			for _, l := range lines {
				writeWALLine(t, path, l)
			}
			if _, err := replayWAL(path); err == nil {
				t.Fatal("corrupt seed list replayed without error")
			}
		})
	}
}

// TestWALReplayAcceptsLegacyUnversionedRecords: logs written before the
// version field existed carry no "v" key and must replay unchanged.
func TestWALReplayAcceptsLegacyUnversionedRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), walName)
	agg := sealedAgg(7)
	writeWALLine(t, path, fmt.Sprintf(`{"seq":1,"seeds":[0,2],"agg":{"count":%d,"maxSize":%d,"topn":%d,"plexXor":%q},"enumMs":5}`,
		agg.Count, agg.MaxSize, agg.TopN, agg.PlexXor))

	rep, err := replayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated || rep.LastSeq != 1 || len(rep.doneSeeds) != 2 {
		t.Fatalf("legacy replay = truncated=%v lastSeq=%d seeds=%v", rep.Truncated, rep.LastSeq, rep.doneSeeds)
	}
	if len(rep.aggs) != 1 || rep.aggs[0].PlexDigest() != agg.PlexDigest() {
		t.Fatalf("legacy replay aggregates = %v", rep.aggs)
	}
}

// TestWALVersionRoundTrip: what this binary writes, this binary replays.
func TestWALVersionRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), walName)
	w, err := OpenLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(&walRecord{Seeds: []int{i}, Agg: sealedAgg(i), EnumMS: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	rep, err := replayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated || rep.LastSeq != 3 || len(rep.doneSeeds) != 3 {
		t.Fatalf("replay = truncated=%v lastSeq=%d seeds=%v", rep.Truncated, rep.LastSeq, rep.doneSeeds)
	}
}

// TestWALFixtureReplay pins the on-disk job log format. The committed
// fixtures were written by real jobs on corpus:planted-a — a single query
// (testdata/wal.ndjson, the "agg" layout) and the three-item batch sweep
// (testdata/wal_batch.ndjson, the "items" layout). Each must replay to the
// engine's reference aggregates over the whole seed space, and appending
// its records to a fresh log must reproduce the file byte for byte.
func TestWALFixtureReplay(t *testing.T) {
	for _, fx := range []struct {
		file string
		spec Spec
	}{
		{"wal.ndjson", Spec{Graph: "corpus:planted-a", K: 2, Q: 6, TopN: 5}},
		{"wal_batch.ndjson", Spec{Graph: "corpus:planted-a", Items: batchSpecCells}},
	} {
		t.Run(fx.file, func(t *testing.T) {
			path := filepath.Join("testdata", fx.file)
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := replayWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Truncated || rep.ValidBytes != int64(len(want)) {
				t.Fatalf("fixture replay truncated=%v validBytes=%d of %d", rep.Truncated, rep.ValidBytes, len(want))
			}

			items, groups, err := fx.spec.queries(1)
			if err != nil {
				t.Fatal(err)
			}
			g, _, _, err := testLoader(fx.spec.Graph)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, grp := range groups {
				n, err := kplex.SeedSpace(g, grp.Cell)
				if err != nil {
					t.Fatal(err)
				}
				total += n
			}
			if len(rep.doneSeeds) != total {
				t.Fatalf("fixture covers %d seeds, want the whole %d-seed space", len(rep.doneSeeds), total)
			}
			if len(rep.aggs) != len(items) {
				t.Fatalf("fixture replays %d aggregates, want %d", len(rep.aggs), len(items))
			}
			for i, it := range items {
				a := rep.aggs[i]
				got := ItemResult{K: it.K, Q: it.Q, Count: a.Count, MaxSize: a.MaxSize, TopK: a.TopK, Histogram: a.Histogram, PlexDigest: a.PlexDigest()}
				assertItemMatches(t, &got, refAggregate(t, fx.spec.Graph, it.K, it.Q, it.TopN))
			}

			out := filepath.Join(t.TempDir(), walName)
			w, err := OpenLog(out, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.SplitAfter(strings.TrimSuffix(string(want), "\n"), "\n") {
				_, payload, _ := strings.Cut(line, " ")
				var rec walRecord
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
		})
	}
}
