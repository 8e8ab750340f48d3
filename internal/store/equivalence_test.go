package store

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kplex"
)

// plexSetDigest is an order-independent digest of an enumeration's result
// set: sha256 each sorted plex, XOR the hashes. Delivery order differs
// between schedulers and between backends, so equality of this digest is
// equality of the result sets themselves.
type plexSetDigest struct {
	mu  sync.Mutex
	acc [32]byte
	n   int64
}

func (d *plexSetDigest) add(plex []int) {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	for _, v := range plex {
		w := binary.PutUvarint(buf[:], uint64(v))
		h.Write(buf[:w])
	}
	var one [32]byte
	h.Sum(one[:0])
	d.mu.Lock()
	for i := range d.acc {
		d.acc[i] ^= one[i]
	}
	d.n++
	d.mu.Unlock()
}

func (d *plexSetDigest) hex() string { return hex.EncodeToString(d.acc[:]) }

// TestMmapExecutionEquivalence is the golden grid of this package: for a
// slice of the regression corpus, every (k, q) cell and every scheduler,
// the mmap-backed Reader must produce byte-identical results — count,
// top-k sets and the order-independent plex-set digest — to the in-memory
// graph the file was written from. This is the acceptance property of the
// whole store: the engine cannot tell the backends apart.
func TestMmapExecutionEquivalence(t *testing.T) {
	graphs := []string{"planted-a", "sbm-blocks", "gnp-dense", "chunglu-tail"}
	cells := []struct{ k, q int }{{2, 6}, {3, 8}}
	schedulers := []kplex.SchedulerStyle{
		kplex.SchedulerStages, kplex.SchedulerSteal,
	}
	for _, name := range graphs {
		g := gen.CorpusGraphByName(name).Build()
		// A tiny block size and cache force real block churn during the run.
		path := filepath.Join(t.TempDir(), name+".kpg")
		if err := WriteGraphFile(path, g, 64); err != nil {
			t.Fatal(err)
		}
		r, err := OpenFileCache(path, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for _, cell := range cells {
			for _, sched := range schedulers {
				opts := kplex.Options{
					K: cell.k, Q: cell.q, UseCTCP: true,
					Threads: 4, Scheduler: sched,
				}
				var memSet, mmapSet plexSetDigest
				memOpts, mmapOpts := opts, opts
				memOpts.OnPlex = memSet.add
				mmapOpts.OnPlex = mmapSet.add

				memRes, err := kplex.Run(context.Background(), g, memOpts)
				if err != nil {
					t.Fatal(err)
				}
				mmapRes, err := kplex.Run(context.Background(), r, mmapOpts)
				if err != nil {
					t.Fatal(err)
				}
				tag := name + "/" + sched.String() + "/" + "kq"
				if memRes.Count != mmapRes.Count {
					t.Errorf("%s k=%d q=%d: count mmap=%d mem=%d", tag, cell.k, cell.q, mmapRes.Count, memRes.Count)
				}
				if memSet.hex() != mmapSet.hex() {
					t.Errorf("%s k=%d q=%d: plex-set digest differs (mmap %s, mem %s)",
						tag, cell.k, cell.q, mmapSet.hex()[:16], memSet.hex()[:16])
				}

				memTop, _, err := kplex.EnumerateTopK(context.Background(), g, opts, 5)
				if err != nil {
					t.Fatal(err)
				}
				mmapTop, _, err := kplex.EnumerateTopK(context.Background(), r, opts, 5)
				if err != nil {
					t.Fatal(err)
				}
				if len(memTop) != len(mmapTop) {
					t.Fatalf("%s k=%d q=%d: topk lengths differ", tag, cell.k, cell.q)
				}
				for i := range memTop {
					if len(memTop[i]) != len(mmapTop[i]) {
						t.Errorf("%s k=%d q=%d: topk[%d] sizes differ (%d vs %d)",
							tag, cell.k, cell.q, i, len(mmapTop[i]), len(memTop[i]))
					}
				}
			}
		}
	}
}

// A handle prepared from the mmap backend must equal one prepared in
// memory all the way down to its serialized bytes — the property that
// lets the catalog persist a prologue computed against either backend.
func TestPrepareEquivalentAcrossBackends(t *testing.T) {
	g := gen.CorpusGraphByName("planted-a").Build()
	path := filepath.Join(t.TempDir(), "p.kpg")
	if err := WriteGraphFile(path, g, 32); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	opts := kplex.Options{K: 2, Q: 6, UseCTCP: true}
	pMem, err := kplex.Prepare(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	pMap, err := kplex.Prepare(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := graph.Digest(g)
	if string(kplex.MarshalPrepared(pMem, d)) != string(kplex.MarshalPrepared(pMap, d)) {
		t.Fatal("prologues prepared from the two backends serialize differently")
	}
}
