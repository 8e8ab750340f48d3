package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestCatalogRegisterLookupOpen(t *testing.T) {
	dir := t.TempDir()
	g := gen.GNP(120, 0.08, 5)
	if err := WriteGraphFile(filepath.Join(dir, "gnp.kpg"), g, 0); err != nil {
		t.Fatal(err)
	}
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The untracked file must have been adopted at open.
	e := cat.Lookup("gnp")
	if e == nil {
		t.Fatal("untracked .kpg not adopted at open")
	}
	if e.N != g.N() || e.M != int64(g.M()) || e.Digest != graph.DigestHexOf(g) {
		t.Fatalf("adopted entry %+v does not match source graph", e)
	}
	r, err := cat.OpenGraph("gnp")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if graph.DigestOf(r) != graph.Digest(g) {
		t.Fatal("served graph content differs")
	}
	if cat.Lookup("missing") != nil {
		t.Fatal("Lookup invented an entry")
	}
}

func TestCatalogPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	g := gen.GNP(60, 0.1, 9)
	if err := WriteGraphFile(filepath.Join(dir, "a.kpg"), g, 0); err != nil {
		t.Fatal(err)
	}
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Register("served-as", "a.kpg"); err != nil {
		t.Fatal(err)
	}
	cat2, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cat2.Lookup("served-as") == nil {
		t.Fatal("registered name lost across reopen")
	}
}

func TestCatalogOpenGraphRejectsSwappedFile(t *testing.T) {
	dir := t.TempDir()
	if err := WriteGraphFile(filepath.Join(dir, "g.kpg"), gen.GNP(80, 0.1, 1), 0); err != nil {
		t.Fatal(err)
	}
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Swap in a different graph under the same file name.
	if err := WriteGraphFile(filepath.Join(dir, "g.kpg"), gen.GNP(80, 0.1, 2), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.OpenGraph("g"); err == nil {
		t.Fatal("catalog served a file whose digest no longer matches the manifest")
	}
}

func TestCatalogDropsVanishedEntries(t *testing.T) {
	dir := t.TempDir()
	if err := WriteGraphFile(filepath.Join(dir, "gone.kpg"), gen.GNP(40, 0.1, 1), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCatalog(dir); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, "gone.kpg"))
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Lookup("gone") != nil {
		t.Fatal("entry for a vanished file survived reopen")
	}
}

func TestCatalogIgnoresForeignKpg(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "junk.kpg"), []byte("not a store"), 0o644)
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatalf("a junk .kpg must not fail catalog open: %v", err)
	}
	if cat.Lookup("junk") != nil {
		t.Fatal("junk file adopted")
	}
}

func TestCatalogPrologues(t *testing.T) {
	cat, err := OpenCatalog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	digest := graph.DigestHexOf(gen.GNP(10, 0.3, 1))
	if raw, err := cat.LoadPrologue(digest, 2, 6, true); err != nil || raw != nil {
		t.Fatalf("empty cell: raw=%v err=%v", raw, err)
	}
	payload := []byte("opaque prologue bytes")
	if err := cat.SavePrologue(digest, 2, 6, true, payload); err != nil {
		t.Fatal(err)
	}
	raw, err := cat.LoadPrologue(digest, 2, 6, true)
	if err != nil || string(raw) != string(payload) {
		t.Fatalf("round trip: raw=%q err=%v", raw, err)
	}
	// Cells are distinct by every key component.
	for _, cell := range [][3]any{{3, 6, true}, {2, 7, true}, {2, 6, false}} {
		if raw, _ := cat.LoadPrologue(digest, cell[0].(int), cell[1].(int), cell[2].(bool)); raw != nil {
			t.Fatalf("cell %v leaked another cell's prologue", cell)
		}
	}
	if err := cat.RemovePrologue(digest, 2, 6, true); err != nil {
		t.Fatal(err)
	}
	if raw, _ := cat.LoadPrologue(digest, 2, 6, true); raw != nil {
		t.Fatal("prologue survived removal")
	}
	// A non-hex digest must be rejected, not become a path component.
	if err := cat.SavePrologue("../escape", 1, 2, false, payload); err == nil {
		t.Fatal("path-escaping digest accepted")
	}
}
