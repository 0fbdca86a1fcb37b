package stage

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
)

// testBody spans lines, so a reader that stopped at the first newline
// after the header would be caught.
var testBody = []byte("alpha payload\n\x00\x01\xfe\xff\nlast line\n")

func mustOpen(t *testing.T, dir string, fault *faultinject.Injector) *Cache {
	t.Helper()
	c, err := OpenCache(dir, fault)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheRoundTrip(t *testing.T) {
	c := mustOpen(t, t.TempDir(), nil)
	key := "00deadbeef"
	if _, ok := c.Get(key); ok {
		t.Fatal("hit before put")
	}
	if err := c.Put(key, "test", testBody); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after put")
	}
	if !bytes.Equal(got, testBody) {
		t.Fatalf("body altered: %q vs %q", got, testBody)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Corrupt != 0 {
		t.Fatalf("unexpected stats %+v", st)
	}

	// A second handle over the same directory — a different process,
	// as far as the cache is concerned — sees the entry.
	if _, ok := mustOpen(t, c.Dir(), nil).Get(key); !ok {
		t.Fatal("entry invisible to a fresh handle")
	}
}

// damage returns a committed entry file's bytes damaged the given way.
// head is the length of its header line.
func damage(t *testing.T, c *Cache, raw []byte, head int, how string) []byte {
	t.Helper()
	switch how {
	case "truncate":
		return raw[:len(raw)-3]
	case "flipped-byte":
		out := bytes.Clone(raw)
		out[head+1] ^= 0x01
		return out
	case "header-only":
		return raw[:head]
	case "header-garbage":
		return append([]byte("not a header\n"), raw[head:]...)
	case "empty":
		return nil
	case "grafted":
		if err := c.Put("ab99", "test", testBody); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(c.entryPath("ab99"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	t.Fatalf("unknown damage %q", how)
	return nil
}

// TestCacheCorruptEntriesRecompute is the robustness suite: however an
// entry file is damaged — truncated body, flipped body byte, body cut
// off after the header, garbled header, empty file, or an intact entry
// grafted under another key — Get must detect it, report a miss (so
// the caller recomputes) counted Corrupt, and a fresh Put must restore
// a servable entry. Never a crash, never served garbage.
func TestCacheCorruptEntriesRecompute(t *testing.T) {
	for _, how := range []string{"truncate", "flipped-byte", "header-only", "header-garbage", "empty", "grafted"} {
		t.Run(how, func(t *testing.T) {
			c := mustOpen(t, t.TempDir(), nil)
			key := "ab" + how
			if err := c.Put(key, "test", testBody); err != nil {
				t.Fatal(err)
			}
			path := c.entryPath(key)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			head := len(entryHeader("test", key, testBody))
			if err := os.WriteFile(path, damage(t, c, raw, head, how), 0o644); err != nil {
				t.Fatal(err)
			}
			if body, ok := c.Get(key); ok {
				t.Fatalf("served corrupt entry: %q", body)
			}
			if st := c.Stats(); st.Corrupt != 1 {
				t.Fatalf("corruption not counted once: %+v", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry left on disk: %v", err)
			}
			// The recompute-and-rewrite path restores the entry.
			if err := c.Put(key, "test", testBody); err != nil {
				t.Fatal(err)
			}
			if got, ok := c.Get(key); !ok || !bytes.Equal(got, testBody) {
				t.Fatalf("recomputed entry: (%q, %v)", got, ok)
			}
		})
	}
}

// TestCacheCorruptionFault proves the injected-corruption path end to
// end: an armed cache-corrupt injector garbles the Nth write AFTER
// checksumming, so the header no longer matches the body; the next Get
// must detect exactly that, drop the entry, and let the caller
// recompute — at which point a clean Put heals it.
func TestCacheCorruptionFault(t *testing.T) {
	inj := faultinject.New(42, faultinject.Spec{CacheCorrupts: 1, CacheCorruptEvery: 2})
	c := mustOpen(t, t.TempDir(), inj.Scope("cache", faultinject.CacheCorrupt))

	// Put #1: clean (every 2nd put corrupts).
	if err := c.Put("aa01", "test", testBody); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("aa01"); !ok {
		t.Fatal("clean put unreadable")
	}
	// Put #2: garbled in flight.
	if err := c.Put("aa02", "test", testBody); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("aa02"); ok {
		t.Fatal("served the garbled entry")
	}
	if c.Stats().Corrupt == 0 {
		t.Fatal("garbled entry not counted corrupt")
	}
	if got := inj.Counts()[faultinject.CacheCorrupt]; got != 1 {
		t.Fatalf("injector tally = %d, want 1", got)
	}
	// Put #3: clean again — recompute heals the entry.
	if err := c.Put("aa02", "test", testBody); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("aa02"); !ok {
		t.Fatal("healed entry unreadable")
	}
}

func TestCacheRunManifest(t *testing.T) {
	c := mustOpen(t, t.TempDir(), nil)
	if err := c.Put("ab12", "profile", testBody); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("cd34", "report", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// A temp file a crashed Put left behind is not an entry.
	if err := os.WriteFile(filepath.Join(c.Dir(), "objects", "ab", ".ab56.tmp-1"), testBody, 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := c.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "ab12" || keys[1] != "cd34" {
		t.Fatalf("keys = %v", keys)
	}
	path, err := c.WriteRunManifest()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Entries []struct {
			Key, Kind, SHA256 string
			Bytes             int
		}
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"ab12 profile " + strings.Fields(string(entryHeader("profile", "ab12", testBody)))[3],
		"cd34 report 2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881",
	}
	if len(m.Entries) != 2 || m.Entries[0].Bytes != len(testBody) || m.Entries[1].Bytes != 1 {
		t.Fatalf("run manifest entries = %+v", m.Entries)
	}
	for i, e := range m.Entries {
		if got := e.Key + " " + e.Kind + " " + e.SHA256; got != want[i] {
			t.Errorf("run manifest entry %d = %q, want %q", i, got, want[i])
		}
	}
}

// TestCacheReplacesOldLayoutEntry: an entry directory left by the
// cache's earlier directory-per-entry layout reads as a miss, and the
// first Load commits its file over it, so the key is computed once,
// not on every run.
func TestCacheReplacesOldLayoutEntry(t *testing.T) {
	c := mustOpen(t, t.TempDir(), nil)
	key := "ab01"
	old := c.entryPath(key)
	if err := os.MkdirAll(old, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]string{"manifest.json": `{"key":"ab01","kind":"test","files":{}}`, "trace.prv": "#PRV2\tx\n"} {
		if err := os.WriteFile(filepath.Join(old, name), []byte(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	computes := 0
	asIs := func(b []byte) ([]byte, error) { return b, nil }
	load := func() ([]byte, bool) {
		v, fromDisk, err := Load(c, key, "test", asIs, asIs, func() ([]byte, error) { computes++; return testBody, nil })
		if err != nil {
			t.Fatal(err)
		}
		return v, fromDisk
	}
	if _, fromDisk := load(); fromDisk || computes != 1 {
		t.Fatalf("first load: fromDisk %v after %d computes, want a miss after 1", fromDisk, computes)
	}
	if v, fromDisk := load(); !fromDisk || computes != 1 || !bytes.Equal(v, testBody) {
		t.Fatalf("second load: (%q, %v) after %d computes, want the committed body from disk", v, fromDisk, computes)
	}
}

// TestCacheConcurrentSameKey: two handles over one directory commit
// one key from several goroutines while others read it. With no lock,
// every read is still a miss or the exact body, and no temp file is
// left behind.
func TestCacheConcurrentSameKey(t *testing.T) {
	dir := t.TempDir()
	handles := []*Cache{mustOpen(t, dir, nil), mustOpen(t, dir, nil)}
	const key, rounds = "cafe", 50
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		c := handles[g%2]
		put := g < 4
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if put {
					if err := c.Put(key, "test", testBody); err != nil {
						t.Error(err)
						return
					}
				} else if got, ok := c.Get(key); ok && !bytes.Equal(got, testBody) {
					t.Errorf("read a torn entry: %q", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, c := range handles {
		if st := c.Stats(); st.Corrupt != 0 {
			t.Errorf("a concurrent commit read as corrupt: %+v", st)
		}
	}
	ents, err := os.ReadDir(filepath.Dir(handles[0].entryPath(key)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != key {
		t.Fatalf("shard holds %v, want only the entry", ents)
	}
	if got, ok := handles[1].Get(key); !ok || !bytes.Equal(got, testBody) {
		t.Fatalf("final read: (%q, %v)", got, ok)
	}
}

// FuzzCacheEntry: Get serves exactly what Put stored, and whatever
// bytes sit at an entry's path, Get never panics and serves a body
// only when the file is byte for byte what Put writes for that body;
// anything else is removed.
func FuzzCacheEntry(f *testing.F) {
	f.Add(testBody, append(entryHeader("test", "ab12", testBody), testBody...))
	f.Add([]byte{}, entryHeader("report", "ab12", nil))
	f.Add([]byte("x"), []byte("hmcache1 test ab12 00 1\nx"))
	f.Add([]byte("x"), []byte("hmcache1 test ab12 2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881 +1\nx"))
	f.Add([]byte(nil), []byte(nil))
	f.Fuzz(func(t *testing.T, body, raw []byte) {
		c := mustOpen(t, t.TempDir(), nil)
		const key = "ab12"
		if err := c.Put(key, "test", body); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.Get(key); !ok || !bytes.Equal(got, body) {
			t.Fatalf("Get(Put(%q)) = (%q, %v)", body, got, ok)
		}
		path := c.entryPath(key)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := c.Get(key)
		if !ok {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("rejected entry %q left on disk: %v", raw, err)
			}
			return
		}
		head, _, _ := bytes.Cut(raw, []byte{'\n'})
		fields := strings.Split(string(head), " ")
		if len(fields) < 2 {
			t.Fatalf("served %q from a file with no kind: %q", got, raw)
		}
		if err := c.Put(key, fields[1], got); err != nil {
			t.Fatalf("served %q from %q, whose kind Put refuses: %v", got, raw, err)
		}
		if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, raw) {
			t.Fatalf("served %q from %q, but Put writes %q", got, raw, again)
		}
	})
}
