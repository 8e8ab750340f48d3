// Package sink streams enumeration results to disk and reads them back.
// The paper's workloads emit up to billions of maximal k-plexes, so results
// are written as they arrive (the OnPlex callback) rather than collected:
// a text format for interoperability and a delta-varint binary format that
// is several times smaller. The package also verifies result files — every
// set a k-plex, maximal, large enough, and no duplicates — which is how the
// paper's "all three algorithms return the same result set" check is
// mechanised here.
package sink

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// magic identifies the binary result format; the last byte is the version.
var magic = [8]byte{'K', 'P', 'L', 'X', 'R', 'E', 'S', 1}

// Writer streams k-plexes to an io.Writer. It is safe for concurrent use by
// multiple enumeration workers. Close flushes buffered data; the underlying
// writer is not closed.
type Writer struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	binary bool
	err    error
	buf    []byte
}

// NewTextWriter returns a Writer emitting one sorted "v1 v2 v3" line per
// plex.
func NewTextWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// NewBinaryWriter returns a Writer emitting the compact binary format:
// the magic header, then per plex a uvarint length followed by uvarint
// deltas of the sorted vertex ids.
func NewBinaryWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	return &Writer{bw: bw, binary: true}, nil
}

// Write records one plex. The slice is not retained; it must be sorted
// ascending (the enumerator's OnPlex contract already guarantees this).
func (w *Writer) Write(p []int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.binary {
		w.buf = w.buf[:0]
		w.buf = binary.AppendUvarint(w.buf, uint64(len(p)))
		prev := 0
		for _, v := range p {
			w.buf = binary.AppendUvarint(w.buf, uint64(v-prev))
			prev = v
		}
		_, w.err = w.bw.Write(w.buf)
	} else {
		w.buf = w.buf[:0]
		for i, v := range p {
			if i > 0 {
				w.buf = append(w.buf, ' ')
			}
			w.buf = strconv.AppendInt(w.buf, int64(v), 10)
		}
		w.buf = append(w.buf, '\n')
		_, w.err = w.bw.Write(w.buf)
	}
	return w.err
}

// errClosed poisons a Writer after Close so later Writes fail loudly.
var errClosed = fmt.Errorf("sink: writer closed")

// Close flushes the writer. Further Writes fail. The underlying io.Writer
// is not closed.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return err
	}
	w.err = errClosed
	return nil
}

// ReadAll parses a result stream in either format (auto-detected from the
// magic bytes) and returns the plexes.
func ReadAll(r io.Reader) ([][]int, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(len(magic))
	if err == nil && string(head) == string(magic[:]) {
		return readBinary(br)
	}
	return readText(br)
}

func readBinary(br *bufio.Reader) ([][]int, error) {
	if _, err := br.Discard(len(magic)); err != nil {
		return nil, err
	}
	var out [][]int
	for {
		n, err := binary.ReadUvarint(br)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("sink: plex %d: %w", len(out), err)
		}
		if n == 0 || n > 1<<30 {
			return nil, fmt.Errorf("sink: plex %d: invalid length %d", len(out), n)
		}
		p := make([]int, n)
		prev := uint64(0)
		for i := range p {
			d, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("sink: plex %d: truncated: %w", len(out), err)
			}
			prev += d
			p[i] = int(prev)
		}
		out = append(out, p)
	}
}

func readText(br *bufio.Reader) ([][]int, error) {
	var out [][]int
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		fields := splitFields(sc.Bytes())
		if len(fields) == 0 {
			continue
		}
		p := make([]int, len(fields))
		for i, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("sink: line %d: %w", lineNo, err)
			}
			p[i] = v
		}
		out = append(out, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func splitFields(line []byte) []string {
	var out []string
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
			i++
		}
		start := i
		for i < len(line) && line[i] != ' ' && line[i] != '\t' && line[i] != '\r' {
			i++
		}
		if i > start {
			out = append(out, string(line[start:i]))
		}
	}
	return out
}

// Key canonicalises a plex for duplicate detection. The input must be
// sorted.
func Key(p []int) string {
	buf := make([]byte, 0, len(p)*6)
	for i, v := range p {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return string(buf)
}

// SortPlexes orders a result set canonically: by size descending, then
// lexicographically ascending — the order the comparison tooling uses.
func SortPlexes(plexes [][]int) {
	sort.Slice(plexes, func(i, j int) bool {
		a, b := plexes[i], plexes[j]
		if len(a) != len(b) {
			return len(a) > len(b)
		}
		for x := 0; x < len(a); x++ {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
}

// Equal reports whether two result sets contain the same plexes,
// irrespective of order. Inputs are not modified.
func Equal(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]int, len(a))
	for _, p := range a {
		seen[Key(p)]++
	}
	for _, p := range b {
		k := Key(p)
		if seen[k] == 0 {
			return false
		}
		seen[k]--
	}
	return true
}
