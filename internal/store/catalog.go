package store

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Catalog is the persistent warm layer of a kplexd data directory: a
// manifest of known store files keyed by name, each pinned to the content
// digest recorded when it was registered, plus serialized run prologues
// keyed by digest × (k, q, ctcp). Everything the catalog answers —
// lookup, stats, digest — comes from manifest entries and store headers,
// so a restart reaches "serving, warm" in O(1) per graph: no parse, no
// rehash, no prologue recompute.
//
// On-disk layout under dir:
//
//	manifest.json            atomic-rename snapshot of the entries
//	<name>.kpg               the store files themselves
//	prologues/<digest>-k<k>-q<q>[-ctcp].kpp
//
// The manifest is advisory state *about* the immutable store files, so
// its write discipline is simple: serialize under the catalog lock,
// write manifest.json.tmp, fsync, rename. A crash between the two leaves
// the previous snapshot, and OpenCatalog re-adopts any untracked *.kpg it
// finds, so nothing is ever lost — at worst re-registered.
type Catalog struct {
	dir string

	mu      sync.Mutex
	entries map[string]*CatalogEntry
}

// CatalogEntry is one registered graph. Stats are copied out of the store
// header at registration so listings never touch the file.
type CatalogEntry struct {
	Name         string    `json:"name"`
	File         string    `json:"file"` // path relative to the catalog dir
	Digest       string    `json:"digest"`
	N            int       `json:"n"`
	M            int64     `json:"m"`
	MaxDeg       int       `json:"maxDeg"`
	FileBytes    int64     `json:"fileBytes"`
	RegisteredAt time.Time `json:"registeredAt"`
}

const (
	manifestName = "manifest.json"
	prologueDir  = "prologues"
	// StoreExt is the store-file extension the catalog scans for.
	StoreExt = ".kpg"
)

// OpenCatalog opens (creating if needed) a catalog directory: the
// manifest is loaded, and any *.kpg present but untracked — dropped in by
// an operator, or registered just before a crash beat the manifest write
// — is adopted by reading its header (O(1) per file).
func OpenCatalog(dir string) (*Catalog, error) {
	if err := os.MkdirAll(filepath.Join(dir, prologueDir), 0o755); err != nil {
		return nil, err
	}
	c := &Catalog{dir: dir, entries: make(map[string]*CatalogEntry)}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		var list []*CatalogEntry
		if err := json.Unmarshal(raw, &list); err != nil {
			return nil, fmt.Errorf("store: catalog manifest %s: %w", dir, err)
		}
		for _, e := range list {
			c.entries[e.Name] = e
		}
	case os.IsNotExist(err):
	default:
		return nil, err
	}
	adopted, err := c.adoptUntracked()
	if err != nil {
		return nil, err
	}
	if adopted {
		if err := c.saveLocked(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// adoptUntracked registers every *.kpg in the directory the manifest does
// not know, dropping entries whose file has vanished. Called at open,
// before the catalog is shared, so it runs lockless.
func (c *Catalog) adoptUntracked() (changed bool, err error) {
	for name, e := range c.entries {
		if _, err := os.Stat(filepath.Join(c.dir, e.File)); err != nil {
			delete(c.entries, name)
			changed = true
		}
	}
	files, err := os.ReadDir(c.dir)
	if err != nil {
		return changed, err
	}
	byFile := make(map[string]bool, len(c.entries))
	for _, e := range c.entries {
		byFile[e.File] = true
	}
	for _, f := range files {
		if f.IsDir() || !strings.HasSuffix(f.Name(), StoreExt) || byFile[f.Name()] {
			continue
		}
		name := strings.TrimSuffix(f.Name(), StoreExt)
		if _, taken := c.entries[name]; taken {
			continue // manifest name collides with a foreign file; leave it
		}
		e, err := entryFromFile(c.dir, f.Name(), name)
		if err != nil {
			// A half-written or foreign .kpg must not fail startup; it is
			// simply not served.
			continue
		}
		c.entries[name] = e
		changed = true
	}
	return changed, nil
}

// entryFromFile builds a manifest entry from a store file's header.
func entryFromFile(dir, file, name string) (*CatalogEntry, error) {
	r, err := OpenFile(filepath.Join(dir, file))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	st, err := os.Stat(filepath.Join(dir, file))
	if err != nil {
		return nil, err
	}
	return &CatalogEntry{
		Name:         name,
		File:         file,
		Digest:       r.DigestHex(),
		N:            r.N(),
		M:            int64(r.M()),
		MaxDeg:       r.MaxDegree(),
		FileBytes:    st.Size(),
		RegisteredAt: time.Now().UTC(),
	}, nil
}

// Register adds (or replaces) a named graph backed by a store file that
// already lives inside the catalog directory, and persists the manifest.
func (c *Catalog) Register(name, file string) (*CatalogEntry, error) {
	if filepath.Dir(file) != "." {
		return nil, fmt.Errorf("store: catalog file %q must be a bare filename inside the catalog directory", file)
	}
	e, err := entryFromFile(c.dir, file, name)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[name] = e
	if err := c.saveLocked(); err != nil {
		delete(c.entries, name)
		return nil, err
	}
	return e, nil
}

// Lookup returns the manifest entry for name, or nil.
func (c *Catalog) Lookup(name string) *CatalogEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[name]; ok {
		cp := *e
		return &cp
	}
	return nil
}

// OpenGraph maps the named graph and verifies the file still carries the
// digest the manifest pinned — an O(1) header comparison, not a rehash; a
// swapped or rebuilt file with different content is refused rather than
// silently served under stale cache keys.
func (c *Catalog) OpenGraph(name string) (*Reader, error) {
	e := c.Lookup(name)
	if e == nil {
		return nil, fmt.Errorf("store: catalog has no graph %q", name)
	}
	r, err := OpenFile(filepath.Join(c.dir, e.File))
	if err != nil {
		return nil, err
	}
	if got := r.DigestHex(); got != e.Digest {
		r.Close()
		return nil, fmt.Errorf("store: catalog graph %q: file digest %.16s… does not match registered %.16s… (re-register the file)", name, got, e.Digest)
	}
	return r, nil
}

// saveLocked writes the manifest snapshot: tmp, fsync, rename, dir fsync.
func (c *Catalog) saveLocked() error {
	list := make([]*CatalogEntry, 0, len(c.entries))
	for _, e := range c.entries {
		list = append(list, e)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].Name < list[j].Name })
	raw, err := json.MarshalIndent(list, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(c.dir, manifestName), raw)
}

func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// prologuePath names the serialized run prologue for one cache cell. The
// digest is hex and the options are small ints, so the name is filesystem
// safe by construction.
func (c *Catalog) prologuePath(digestHex string, k, q int, ctcp bool) (string, error) {
	if len(digestHex) != 64 {
		return "", fmt.Errorf("store: prologue digest %q is not a sha256 hex string", digestHex)
	}
	if _, err := hex.DecodeString(digestHex); err != nil {
		return "", fmt.Errorf("store: prologue digest %q is not hex: %w", digestHex, err)
	}
	name := fmt.Sprintf("%s-k%d-q%d", digestHex, k, q)
	if ctcp {
		name += "-ctcp"
	}
	return filepath.Join(c.dir, prologueDir, name+".kpp"), nil
}

// SavePrologue persists a serialized run prologue (kplex.MarshalPrepared
// output) for the given cache cell, atomically.
func (c *Catalog) SavePrologue(digestHex string, k, q int, ctcp bool, data []byte) error {
	path, err := c.prologuePath(digestHex, k, q, ctcp)
	if err != nil {
		return err
	}
	return atomicWrite(path, data)
}

// LoadPrologue returns the serialized prologue for the cell, or
// (nil, nil) when none is stored.
func (c *Catalog) LoadPrologue(digestHex string, k, q int, ctcp bool) ([]byte, error) {
	path, err := c.prologuePath(digestHex, k, q, ctcp)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	return data, err
}

// RemovePrologue drops one stored cell (tests and tooling).
func (c *Catalog) RemovePrologue(digestHex string, k, q int, ctcp bool) error {
	path, err := c.prologuePath(digestHex, k, q, ctcp)
	if err != nil {
		return err
	}
	err = os.Remove(path)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}
