package stage

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// Manifest records what one cache entry holds and how to tell it is
// intact: the key it answers, the kind of artifact, and a sha256 per
// file. It is written last, so a manifest that exists and verifies
// means the whole entry was committed.
type Manifest struct {
	Key   string            `json:"key"`
	Kind  string            `json:"kind"`
	Files map[string]string `json:"files"` // name -> sha256 hex
}

const manifestName = "manifest.json"

// CacheStats counts what the cache did over its lifetime. Corrupt
// counts entries that existed on disk but failed verification and were
// dropped; such a Get also counts as a miss.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Puts    int64 `json:"puts"`
	Corrupt int64 `json:"corrupt"`
}

// Cache is a content-addressed artifact store rooted at one directory.
// Entries live at objects/<key[:2]>/<key>/ and are immutable once
// committed: Put stages into a temp directory and renames it in, so a
// crash mid-write leaves either no entry or a whole one — and if
// anything else slips through (torn write, bit rot, an injected
// corruption), the per-file checksums in the manifest catch it on Get
// and the entry is dropped rather than served.
//
// A Cache handle is safe for concurrent use. Multiple handles — in one
// process or several — may share a directory: keys are content
// fingerprints, so concurrent writers of the same key write identical
// bytes and the last rename wins harmlessly.
type Cache struct {
	dir   string
	fault *faultinject.Injector

	mu    sync.Mutex // serializes same-key commit races within this handle
	stats struct {
		hits, misses, puts, corrupt atomic.Int64
	}
}

// OpenCache opens (creating if needed) the artifact cache rooted at
// dir. fault may be nil; when set, its cache-corrupt point garbles
// selected writes so tests can prove the corruption path end to end.
func OpenCache(dir string, fault *faultinject.Injector) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("stage: empty cache dir")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("stage: open cache: %w", err)
	}
	return &Cache{dir: dir, fault: fault}, nil
}

// Dir reports the cache root.
func (c *Cache) Dir() string { return c.dir }

// Stats returns a snapshot of the lifetime counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:    c.stats.hits.Load(),
		Misses:  c.stats.misses.Load(),
		Puts:    c.stats.puts.Load(),
		Corrupt: c.stats.corrupt.Load(),
	}
}

func (c *Cache) entryDir(key string) string {
	if len(key) < 2 {
		key = "00" + key
	}
	return filepath.Join(c.dir, "objects", key[:2], key)
}

// Get fetches the entry for key, returning its files by name, or
// ok=false on a miss. An entry that exists but fails verification —
// missing manifest, checksum mismatch, unreadable file — is deleted
// and reported as a miss: a corrupt artifact is recomputed, never
// served.
func (c *Cache) Get(key string) (files map[string][]byte, ok bool) {
	dir := c.entryDir(key)
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		c.stats.misses.Add(1)
		return nil, false
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil || m.Key != key {
		c.drop(dir)
		return nil, false
	}
	files = make(map[string][]byte, len(m.Files))
	for name, sum := range m.Files {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || sha256hex(b) != sum {
			c.drop(dir)
			return nil, false
		}
		files[name] = b
	}
	c.stats.hits.Add(1)
	return files, true
}

// Drop removes the entry for key, counting it corrupt — the remedy
// for an entry whose checksums verify but whose payload will not
// decode (e.g. written by an incompatible codec).
func (c *Cache) Drop(key string) {
	c.drop(c.entryDir(key))
}

// drop removes a corrupt entry and counts it as both corrupt and a
// miss.
func (c *Cache) drop(dir string) {
	os.RemoveAll(dir)
	c.stats.corrupt.Add(1)
	c.stats.misses.Add(1)
}

// Put commits an entry: files are staged into a temp directory next to
// the final location, checksummed into the manifest, and renamed into
// place in one step. If the entry already exists it is left alone —
// content addressing makes the incumbent byte-identical. Under an
// injected cache-corrupt fault the staged bytes of one file are
// garbled AFTER checksumming, modeling a torn write the manifest must
// catch on the next Get.
func (c *Cache) Put(key, kind string, files map[string][]byte) error {
	c.stats.puts.Add(1)
	dir := c.entryDir(key)
	corrupt := c.fault.CacheCorruption()

	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil && !corrupt {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return fmt.Errorf("stage: put %s: %w", key, err)
	}
	tmp, err := os.MkdirTemp(filepath.Dir(dir), "."+filepath.Base(dir)+".tmp-")
	if err != nil {
		return fmt.Errorf("stage: put %s: %w", key, err)
	}
	defer os.RemoveAll(tmp)

	m := Manifest{Key: key, Kind: kind, Files: make(map[string]string, len(files))}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		b := files[name]
		m.Files[name] = sha256hex(b)
		if corrupt && i == 0 {
			b = garble(b)
		}
		if err := os.WriteFile(filepath.Join(tmp, name), b, 0o644); err != nil {
			return fmt.Errorf("stage: put %s: %w", key, err)
		}
	}
	mb, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("stage: put %s: %w", key, err)
	}
	if err := os.WriteFile(filepath.Join(tmp, manifestName), append(mb, '\n'), 0o644); err != nil {
		return fmt.Errorf("stage: put %s: %w", key, err)
	}
	os.RemoveAll(dir) // replace a corrupt incumbent, if any
	if err := os.Rename(tmp, dir); err != nil {
		return fmt.Errorf("stage: put %s: %w", key, err)
	}
	return nil
}

// garble flips bits so the payload no longer matches its recorded
// checksum; an empty payload grows a byte so even that case corrupts.
func garble(b []byte) []byte {
	if len(b) == 0 {
		return []byte{0xff}
	}
	out := append([]byte(nil), b...)
	out[0] ^= 0xff
	out[len(out)-1] ^= 0xff
	return out
}

// Keys lists every committed entry key, sorted, for manifest reporting
// and tests.
func (c *Cache) Keys() ([]string, error) {
	var keys []string
	root := filepath.Join(c.dir, "objects")
	shards, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		ents, err := os.ReadDir(filepath.Join(root, sh.Name()))
		if err != nil {
			continue
		}
		for _, e := range ents {
			if e.IsDir() && filepath.Ext(e.Name()) == "" {
				if _, err := os.Stat(filepath.Join(root, sh.Name(), e.Name(), manifestName)); err == nil {
					keys = append(keys, e.Name())
				}
			}
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// WriteRunManifest writes a top-level run_manifest.json describing the
// cache: every entry key with its kind and file checksums. CI uploads
// it as a build artifact so a human can audit exactly which artifacts a
// run produced and reused.
func (c *Cache) WriteRunManifest() (string, error) {
	keys, err := c.Keys()
	if err != nil {
		return "", err
	}
	type entry struct {
		Key   string            `json:"key"`
		Kind  string            `json:"kind"`
		Files map[string]string `json:"files"`
	}
	out := struct {
		Entries []entry    `json:"entries"`
		Stats   CacheStats `json:"stats"`
	}{Stats: c.Stats()}
	for _, k := range keys {
		raw, err := os.ReadFile(filepath.Join(c.entryDir(k), manifestName))
		if err != nil {
			continue
		}
		var m Manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			continue
		}
		out.Entries = append(out.Entries, entry{Key: m.Key, Kind: m.Kind, Files: m.Files})
	}
	b, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(c.dir, "run_manifest.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

func sha256hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
