package stage

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/faultinject"
)

// entryMagic opens every entry's header line and names its format
// version.
const entryMagic = "hmcache1"

// CacheStats counts what the cache did over its lifetime. Corrupt
// counts entries that existed on disk but failed verification and were
// dropped; such a Get also counts as a miss.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Puts    int64 `json:"puts"`
	Corrupt int64 `json:"corrupt"`
}

// Cache is a content-addressed blob store rooted at one directory.
// Each entry is one file, objects/<key[:2]>/<key>: a header line
// (magic and version, kind, key, the body's sha256 and its length)
// followed by the body. Put writes a temp file and renames it over the
// entry, so a reader sees either the old file or the new one, never a
// half-written one; if anything else slips through (torn write, bit
// rot, an injected corruption), the header's checksum catches it on
// Get and the entry is dropped rather than served.
//
// A Cache handle is safe for concurrent use. Multiple handles — in one
// process or several — may share a directory: keys are content
// fingerprints, so concurrent writers of the same key write identical
// bytes and the last rename wins harmlessly.
type Cache struct {
	dir   string
	fault *faultinject.Injector

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

// validName reports whether s can stand as a key or kind: one field of
// the header line, and for a key a file name that is not a temp file.
func validName(s string) bool {
	return len(s) >= 2 && s[0] != '.' && !strings.ContainsAny(s, " \n/")
}

func (c *Cache) entryPath(key string) string {
	return filepath.Join(c.dir, "objects", key[:2], key)
}

// entryHeader is the line Put writes ahead of body.
func entryHeader(kind, key string, body []byte) []byte {
	return fmt.Appendf(nil, "%s %s %s %x %d\n", entryMagic, kind, key, sha256.Sum256(body), len(body))
}

// Get fetches the body stored under key, or ok=false on a miss. It is
// one read: an entry whose header does not answer key, or whose body
// fails its length or checksum, is deleted and reported as a miss — a
// corrupt artifact is recomputed, never served.
func (c *Cache) Get(key string) (body []byte, ok bool) {
	if !validName(key) {
		c.stats.misses.Add(1)
		return nil, false
	}
	path := c.entryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		c.stats.misses.Add(1)
		return nil, false
	}
	head, body, found := bytes.Cut(raw, []byte{'\n'})
	f := strings.Split(string(head), " ")
	if !found || len(f) != 5 || !validName(f[1]) || !bytes.Equal(raw[:len(head)+1], entryHeader(f[1], key, body)) {
		c.drop(path)
		return nil, false
	}
	c.stats.hits.Add(1)
	return body, true
}

// Drop removes the entry for key, counting it corrupt — the remedy
// for an entry whose checksum verifies but whose body will not decode
// (e.g. written by an incompatible codec).
func (c *Cache) Drop(key string) {
	if validName(key) {
		c.drop(c.entryPath(key))
	}
}

// drop removes a corrupt entry and counts it as both corrupt and a
// miss.
func (c *Cache) drop(path string) {
	os.Remove(path)
	c.stats.corrupt.Add(1)
	c.stats.misses.Add(1)
}

// Put commits body under key: it writes the header and body to a
// dot-named temp file in the key's shard and renames it over the
// entry, replacing any incumbent — a corrupt one, or a directory left
// by an older cache layout. Under an injected cache-corrupt fault the
// body is garbled AFTER checksumming, modeling a torn write the header
// must catch on the next Get.
func (c *Cache) Put(key, kind string, body []byte) error {
	c.stats.puts.Add(1)
	if !validName(key) || !validName(kind) {
		return fmt.Errorf("stage: put: bad key %q or kind %q", key, kind)
	}
	head := entryHeader(kind, key, body)
	if c.fault.CacheCorruption() {
		body = garble(body)
	}
	path := c.entryPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("stage: put %s: %w", key, err)
	}
	name := filepath.Join(filepath.Dir(path), fmt.Sprintf(".%s.tmp-%016x", key, rand.Uint64()))
	tmp, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("stage: put %s: %w", key, err)
	}
	_, err = tmp.Write(head)
	if err == nil {
		_, err = tmp.Write(body)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		if err = os.Rename(name, path); err != nil {
			if fi, serr := os.Lstat(path); serr == nil && fi.IsDir() && os.RemoveAll(path) == nil {
				err = os.Rename(name, path)
			}
		}
	}
	if err != nil {
		os.Remove(name)
		return fmt.Errorf("stage: put %s: %w", key, err)
	}
	return nil
}

// garble flips bits so the body no longer matches its recorded
// checksum; an empty body grows a byte so even that case corrupts.
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
// and tests: the regular files of each shard that are not dot-named
// temp files.
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
			if e.Type().IsRegular() && e.Name()[0] != '.' {
				keys = append(keys, e.Name())
			}
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// WriteRunManifest writes a top-level run_manifest.json describing the
// cache: every entry's key, kind, body sha256 and body length, read
// from its header line, plus the counters. CI uploads it as a build
// artifact so a human can audit exactly which artifacts a run produced
// and reused.
func (c *Cache) WriteRunManifest() (string, error) {
	keys, err := c.Keys()
	if err != nil {
		return "", err
	}
	type entry struct {
		Key    string `json:"key"`
		Kind   string `json:"kind"`
		SHA256 string `json:"sha256"`
		Bytes  int64  `json:"bytes"`
	}
	out := struct {
		Entries []entry    `json:"entries"`
		Stats   CacheStats `json:"stats"`
	}{Stats: c.Stats()}
	for _, k := range keys {
		if f, ok := readHeader(c.entryPath(k)); ok && f[2] == k {
			n, _ := strconv.ParseInt(f[4], 10, 64)
			out.Entries = append(out.Entries, entry{Key: k, Kind: f[1], SHA256: f[3], Bytes: n})
		}
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

// readHeader returns the five fields of the header line of the entry
// file at path, without reading its body.
func readHeader(path string) ([]string, bool) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer fh.Close()
	line, err := bufio.NewReader(fh).ReadSlice('\n')
	f := strings.Split(strings.TrimSuffix(string(line), "\n"), " ")
	return f, err == nil && len(f) == 5 && f[0] == entryMagic
}
