package jobs

// Durable files shared by the executors: the CRC-framed append log both
// checkpoint into (a local job's wal.ndjson, a distributed job's
// ranges.ndjson) and the fsynced atomic writer behind every manifest and
// result. Only the record types differ per executor.
//
// Every log line is "%08x <json>\n": the CRC32 of the JSON payload, then
// the payload, whose first two fields are the schema version "v" and the
// sequence number "seq" (see LogHeader). Replay stops at the first line
// that is torn — unterminated, failing its CRC, or undecodable — or that
// breaks the sequence, and keeps the intact prefix; that is how a crash
// mid-write degrades into "resume from the previous record" instead of a
// corrupt job. A CRC-valid record with a higher version than LogVersion
// is a hard error instead: it is exactly what a newer binary durably
// wrote, and truncating it would resume from an older record and then
// append colliding sequence numbers after valid newer data.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// LogVersion is the schema version stamped on every record this binary
// appends. Replay accepts records up to and including it; 0 marks a job
// record written before the field existed.
const LogVersion = 1

// LogHeader opens every log record. Record types embed it as their first
// field, which is what makes them appendable and keeps "v" and "seq" at
// the head of each line.
type LogHeader struct {
	Ver int `json:"v,omitempty"`
	Seq int `json:"seq"`
}

func (h *LogHeader) header() *LogHeader { return h }

// logRecord is a record type embedding LogHeader.
type logRecord interface{ header() *LogHeader }

// ErrTornRecord, returned by a ReplayLog apply function, ends the replay at
// that record as if its line were torn: the record and everything after
// it are discarded.
var ErrTornRecord = errors.New("jobs: unusable log record")

// Log appends records durably.
type Log struct {
	f   *os.File
	seq int
	// onSync, when non-nil, receives the wall-clock duration of each
	// successful fsync — the feed for the fsync latency histogram.
	onSync func(d time.Duration)
	sync   func(*os.File) error // the fsync of an append; tests make it fail
}

// OpenLog opens (creating if needed) the log at path for appending after
// lastSeq, the sequence number its replay ended on.
func OpenLog(path string, lastSeq int) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Log{f: f, seq: lastSeq, sync: (*os.File).Sync}, nil
}

// Append stamps rec with LogVersion and the next sequence number, writes
// it and fsyncs. Aggregates inside rec must come from Aggregate.Snapshot.
// The sequence number only advances on success, so a failed append is
// simply retried later — after truncating back to the pre-append size,
// because a short write would otherwise leave a newline-less partial line
// that the retry welds into one CRC-failing line, hiding every later
// record from replay. (If even the truncate fails the disk is gone; the
// torn-tail rule of replay is the remaining backstop.)
func (l *Log) Append(rec logRecord) error {
	h := rec.header()
	h.Ver, h.Seq = LogVersion, l.seq+1
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	st, err := l.f.Stat()
	if err != nil {
		return err
	}
	line := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(payload), payload)
	if _, err := l.f.WriteString(line); err != nil {
		l.f.Truncate(st.Size()) //nolint:errcheck // best effort, see above
		return err
	}
	syncStart := time.Now()
	if err := l.sync(l.f); err != nil {
		l.f.Truncate(st.Size()) //nolint:errcheck
		return err
	}
	if l.onSync != nil {
		l.onSync(time.Since(syncStart))
	}
	l.seq++
	return nil
}

// Close closes the log file.
func (l *Log) Close() error { return l.f.Close() }

// LogReplay is what ReplayLog found.
type LogReplay struct {
	LastSeq    int   // sequence number of the last record kept (0: none)
	Truncated  bool  // a torn or unusable tail was cut off
	ValidBytes int64 // length of the kept record prefix
}

// ReplayLog reads the log at path and hands each intact record, in order,
// to apply. A missing file is an empty log. apply returns ErrTornRecord to
// end the replay at a record it cannot use, or another error to abort
// with it. A discarded tail is cut off the file before returning, so the
// next O_APPEND writer starts on a clean line. A final line without its
// newline is torn even when its CRC passes: a record's durability ends at
// its newline.
func ReplayLog[R any, P interface {
	*R
	logRecord
}](path string, apply func(P) error) (LogReplay, error) {
	var rep LogReplay
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return rep, nil
	}
	if err != nil {
		return rep, err
	}
	for rest := data; len(rest) > 0; {
		idx := bytes.IndexByte(rest, '\n')
		rec := P(new(R))
		if idx < 0 || !decodeLogLine(string(rest[:idx]), rec) {
			rep.Truncated = true
			break
		}
		h := rec.header()
		if h.Ver > LogVersion {
			return rep, fmt.Errorf("log record %d has schema version %d, but this binary understands at most %d (directory shared with a newer binary?)", h.Seq, h.Ver, LogVersion)
		}
		if h.Seq != rep.LastSeq+1 {
			// A lost record orphans everything after it.
			rep.Truncated = true
			break
		}
		if err := apply(rec); errors.Is(err, ErrTornRecord) {
			rep.Truncated = true
			break
		} else if err != nil {
			return rep, err
		}
		rep.LastSeq = h.Seq
		rep.ValidBytes += int64(idx) + 1
		rest = rest[idx+1:]
	}
	if rep.Truncated {
		if err := os.Truncate(path, rep.ValidBytes); err != nil {
			return rep, fmt.Errorf("cutting torn log tail: %w", err)
		}
	}
	return rep, nil
}

// decodeLogLine checks one line's CRC framing and decodes its payload
// into rec, reporting false for a torn line.
func decodeLogLine(line string, rec any) bool {
	crcHex, payload, ok := strings.Cut(line, " ")
	if !ok || len(crcHex) != 8 {
		return false
	}
	var want uint32
	if _, err := fmt.Sscanf(crcHex, "%08x", &want); err != nil || crc32.ChecksumIEEE([]byte(payload)) != want {
		return false
	}
	return json.Unmarshal([]byte(payload), rec) == nil
}

// WriteManifest atomically replaces dir/manifest.json with man.
func WriteManifest(dir string, man *Manifest) error {
	return writeJSONAtomic(dir, "manifest.json", man)
}

// ReadManifest loads dir/manifest.json.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	man := new(Manifest)
	if err := json.Unmarshal(data, man); err != nil {
		return nil, fmt.Errorf("corrupt manifest: %w", err)
	}
	if man.ID == "" {
		return nil, errors.New("manifest has no job id")
	}
	return man, nil
}

// WriteResult atomically persists a job's final answer next to its
// manifest. It must be durable before the manifest records the job done.
func WriteResult(dir string, res *Result) error {
	return writeJSONAtomic(dir, "result.json", res)
}

// ReadResult loads a finished job's answer.
func ReadResult(dir string) (*Result, error) {
	data, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		return nil, err
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// writeJSONAtomic replaces dir/name with v as indented JSON: write a temp
// file, fsync it, rename it into place and fsync the directory, so a
// crash at any point leaves either the previous version or the new one.
func writeJSONAtomic(dir, name string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "."+name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory (best effort: not all platforms support it).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck
		d.Close()
	}
}
