package jobs

// Framing tests for the append log shared by job WALs and cluster range
// logs: torn and corrupt tails are cut off and replay resumes from the
// intact prefix, sequence gaps orphan what follows, records from a newer
// schema version are hard errors, and a failed append leaves no partial
// line behind. Record semantics are tested with each record type.

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type testRecord struct {
	LogHeader
	Body string `json:"body"`
}

// frame returns payload as one CRC-framed log line.
func frame(payload string) string {
	return fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(payload)), payload)
}

func testLine(ver, seq int, body string) string {
	return frame(fmt.Sprintf(`{"v":%d,"seq":%d,"body":%q}`, ver, seq, body))
}

// replayBodies replays path, collecting the record bodies; a body of
// "unusable" is rejected as a torn record.
func replayBodies(path string) ([]string, LogReplay, error) {
	var bodies []string
	rep, err := ReplayLog(path, func(rec *testRecord) error {
		if rec.Body == "unusable" {
			return ErrTornRecord
		}
		bodies = append(bodies, rec.Body)
		return nil
	})
	return bodies, rep, err
}

func TestLogFraming(t *testing.T) {
	good := testLine(1, 1, "a")
	// A payload byte flipped under an unchanged checksum.
	crcFlipped := strings.Replace(testLine(1, 2, "b"), `"body":"b"`, `"body":"B"`, 1)
	for _, tc := range []struct {
		name      string
		content   string
		wantErr   bool
		wantBody  []string // records kept
		truncated bool
	}{
		{name: "intact", content: good + testLine(1, 2, "b"), wantBody: []string{"a", "b"}},
		{name: "empty", content: "", wantBody: nil},
		{name: "legacy_unversioned", content: frame(`{"seq":1,"body":"a"}`), wantBody: []string{"a"}},
		{name: "torn_tail", content: good + `deadbeef {"v":1,"seq":2,"bo`, wantBody: []string{"a"}, truncated: true},
		{name: "unterminated_line", content: good + strings.TrimSuffix(testLine(1, 2, "b"), "\n"), wantBody: []string{"a"}, truncated: true},
		{name: "crc_mismatch", content: good + crcFlipped + testLine(1, 3, "c"), wantBody: []string{"a"}, truncated: true},
		{name: "bad_json", content: good + frame(`{"v":1,"seq":2,`) + testLine(1, 3, "c"), wantBody: []string{"a"}, truncated: true},
		{name: "seq_gap", content: good + testLine(1, 3, "c"), wantBody: []string{"a"}, truncated: true},
		{name: "unusable_record", content: good + testLine(1, 2, "unusable") + testLine(1, 3, "c"), wantBody: []string{"a"}, truncated: true},
		{name: "future_version", content: good + testLine(LogVersion+1, 2, "b"), wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.ndjson")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			bodies, rep, err := replayBodies(path)
			if tc.wantErr {
				if err == nil {
					t.Fatal("replay succeeded, want a hard error")
				}
				if data, _ := os.ReadFile(path); string(data) != tc.content {
					t.Fatal("a hard replay error modified the log")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(bodies) != fmt.Sprint(tc.wantBody) || rep.LastSeq != len(tc.wantBody) || rep.Truncated != tc.truncated {
				t.Fatalf("replay kept %v (lastSeq %d, truncated %v), want %v (truncated %v)", bodies, rep.LastSeq, rep.Truncated, tc.wantBody, tc.truncated)
			}
			if st, err := os.Stat(path); err != nil || st.Size() != rep.ValidBytes {
				t.Fatalf("log is %v bytes after replay, want the %d-byte intact prefix", st.Size(), rep.ValidBytes)
			}

			// The next incarnation appends after the intact prefix and the
			// whole log replays cleanly.
			l, err := OpenLog(path, rep.LastSeq)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(&testRecord{Body: "next"}); err != nil {
				t.Fatal(err)
			}
			l.Close()
			bodies, rep, err = replayBodies(path)
			if err != nil || rep.Truncated || rep.LastSeq != len(tc.wantBody)+1 || bodies[len(bodies)-1] != "next" {
				t.Fatalf("after append: bodies %v lastSeq %d truncated %v err %v", bodies, rep.LastSeq, rep.Truncated, err)
			}
		})
	}

	// An append whose fsync fails must leave the file exactly as before it
	// and not consume a sequence number, so the retry lands as the next
	// record instead of after a half-durable line.
	t.Run("failed_append", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "log.ndjson")
		l, err := OpenLog(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if err := l.Append(&testRecord{Body: "a"}); err != nil {
			t.Fatal(err)
		}
		before, _ := os.ReadFile(path)

		l.sync = func(*os.File) error { return errors.New("injected fsync failure") }
		err = l.Append(&testRecord{Body: "lost"})
		l.sync = (*os.File).Sync
		if err == nil {
			t.Fatal("append with a failing fsync succeeded")
		}
		if after, _ := os.ReadFile(path); string(after) != string(before) {
			t.Fatalf("failed append left %q behind", strings.TrimPrefix(string(after), string(before)))
		}

		if err := l.Append(&testRecord{Body: "b"}); err != nil {
			t.Fatal(err)
		}
		bodies, rep, err := replayBodies(path)
		if err != nil || rep.Truncated || rep.LastSeq != 2 || fmt.Sprint(bodies) != "[a b]" {
			t.Fatalf("replay after retry: bodies %v lastSeq %d truncated %v err %v", bodies, rep.LastSeq, rep.Truncated, err)
		}
	})
}
