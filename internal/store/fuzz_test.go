package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// decodeBlockReference is the two-pass block decoder that decodeRows
// replaced, kept as the oracle of FuzzBlockDecode: a first pass sizes the
// adjacency and checks varints and row lengths, a second fills it and
// checks neighbour range, order and self-loops. One guard is new: a delta
// of n or more is out of range before it is added, where the original
// added it in int64 first, so a 10-byte delta wrapped around to a smaller
// id and a descending row such as [5 4] was accepted.
func decodeBlockReference(enc []byte, base, cnt, n int) (*decodedBlock, error) {
	blk := &decodedBlock{
		base:    int32(base),
		offsets: make([]int32, cnt+1),
	}
	total := 0
	pos := 0
	for i := 0; i < cnt; i++ {
		deg, w := uvarintStrict(enc[pos:])
		if w <= 0 {
			return nil, fmt.Errorf("store: block@%d: vertex %d: bad degree varint", base, base+i)
		}
		pos += w
		if deg > uint64(n) {
			return nil, fmt.Errorf("store: block@%d: vertex %d: degree %d exceeds n=%d", base, base+i, deg, n)
		}
		total += int(deg)
		for j := uint64(0); j < deg; j++ {
			_, w := uvarintStrict(enc[pos:])
			if w <= 0 {
				return nil, fmt.Errorf("store: block@%d: vertex %d: truncated adjacency", base, base+i)
			}
			pos += w
		}
	}
	if pos != len(enc) {
		return nil, fmt.Errorf("store: block@%d: %d trailing bytes after %d rows", base, len(enc)-pos, cnt)
	}
	blk.adj = make([]int32, total)
	pos = 0
	w0 := 0
	for i := 0; i < cnt; i++ {
		deg, w := binary.Uvarint(enc[pos:])
		pos += w
		blk.offsets[i] = int32(w0)
		prev := int64(-1)
		for j := uint64(0); j < deg; j++ {
			delta, w := binary.Uvarint(enc[pos:])
			pos += w
			if delta >= uint64(n) {
				return nil, fmt.Errorf("store: block@%d: vertex %d: neighbour delta %d out of range (n=%d)", base, base+i, delta, n)
			}
			var u int64
			if prev < 0 {
				u = int64(delta)
			} else {
				u = prev + int64(delta)
				if delta == 0 {
					return nil, fmt.Errorf("store: block@%d: vertex %d: duplicate neighbour %d", base, base+i, u)
				}
			}
			if u >= int64(n) {
				return nil, fmt.Errorf("store: block@%d: vertex %d: neighbour %d out of range (n=%d)", base, base+i, u, n)
			}
			if u == int64(base+i) {
				return nil, fmt.Errorf("store: block@%d: self-loop on vertex %d", base, u)
			}
			blk.adj[w0] = int32(u)
			w0++
			prev = u
		}
	}
	blk.offsets[cnt] = int32(w0)
	return blk, nil
}

// FuzzBlockDecode drives the varint/delta block decoder with arbitrary
// bytes and checks it against decodeBlockReference: both must accept or
// both reject, and an accepted block must decode to the same rows. The
// decoder sits directly on mmap'd file content, so it must reject every
// malformed input with an error — never panic, never accept an encoding
// that violates the row invariants. For inputs it does accept,
// re-encoding the decoded rows must reproduce the input bytes exactly:
// the encoding is canonical (one valid byte string per block content),
// which is what lets the writer hash the bytes it emits and still call
// the result a content digest.
func FuzzBlockDecode(f *testing.F) {
	// Valid two-vertex block over n=2.
	valid := appendRow(nil, []int32{1})
	valid = appendRow(valid, []int32{0})
	f.Add(valid, uint16(2), uint32(2))
	// Star row: vertex 0 adjacent to 1..5 over n=6, then five empty rows.
	star := appendRow(nil, []int32{1, 2, 3, 4, 5})
	for i := 0; i < 5; i++ {
		star = appendRow(star, nil)
	}
	f.Add(star, uint16(6), uint32(6))
	// Corruption shapes the unit tests pin.
	f.Add(valid[:len(valid)-1], uint16(2), uint32(2))                                                     // truncated
	f.Add(append([]byte{0x00}, valid...), uint16(2), uint32(2))                                           // shifted
	f.Add([]byte{0x05, 0x01, 0x01, 0x00}, uint16(2), uint32(2))                                           // degree > n
	f.Add([]byte{0x02, 0x01, 0x00, 0x01, 0x00}, uint16(2), uint32(2))                                     // duplicate neighbour
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint16(1), uint32(4)) // 10-byte varint
	f.Add([]byte{}, uint16(0), uint32(0))
	// Overlong 2- and 3-byte varints, as a degree and as a delta: the
	// inline path of uvarintAt must reject them like uvarintStrict does.
	f.Add([]byte{0x80, 0x00}, uint16(1), uint32(4))
	f.Add([]byte{0x80, 0x80, 0x00}, uint16(1), uint32(4))
	f.Add([]byte{0x01, 0x81, 0x00, 0x00}, uint16(2), uint32(300))
	f.Add([]byte{0x01, 0x82, 0x80, 0x00, 0x00}, uint16(2), uint32(300))
	// Multi-byte deltas that end on the block's last byte, where the
	// inline path of uvarintAt has no lookahead left.
	f.Add(appendRow(appendRow(nil, nil), []int32{200}), uint16(2), uint32(300))
	f.Add(appendRow(appendRow(nil, nil), []int32{20000}), uint16(2), uint32(1<<20-1))
	// A 10-byte delta that wraps a second neighbour below the first.
	f.Add([]byte{0x02, 0x05, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint16(1), uint32(10))

	f.Fuzz(func(t *testing.T, enc []byte, cnt16 uint16, n32 uint32) {
		cnt := int(cnt16 % 4097)
		n := int(n32 % (1 << 20))
		blk, err := decodeBlock(enc, 0, cnt, n)
		ref, refErr := decodeBlockReference(enc, 0, cnt, n)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder and reference disagree on %x (cnt=%d n=%d): %v vs %v", enc, cnt, n, err, refErr)
		}
		if err != nil {
			return
		}
		re := make([]byte, 0, len(enc))
		for i := 0; i < cnt; i++ {
			row := blk.row(i)
			if !slices.Equal(row, ref.row(i)) {
				t.Fatalf("row %d = %v, reference %v", i, row, ref.row(i))
			}
			prev := int32(-1)
			for _, u := range row {
				if u <= prev || int(u) >= n || int(u) == i {
					t.Fatalf("accepted block violates row invariants: row %d = %v", i, row)
				}
				prev = u
			}
			re = appendRow(re, row)
		}
		if !bytes.Equal(re, enc) {
			t.Fatalf("decode/encode not canonical: input %x re-encodes to %x", enc, re)
		}
	})
}
