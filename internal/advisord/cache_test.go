package advisord

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/stage"
)

// The daemon's artifact cache is stage.Cache; these tests check it
// from outside, through its exported API and its documented on-disk
// layout: objects/<key[:2]>/<key>/ holding the files and manifest.json.
const manifestName = "manifest.json"

func entryDir(c *stage.Cache, key string) string {
	return filepath.Join(c.Dir(), "objects", key[:2], key)
}

func testFiles() map[string][]byte {
	return map[string][]byte{
		"a.txt": []byte("alpha payload"),
		"b.bin": {0, 1, 2, 3, 254, 255},
	}
}

func mustOpen(t *testing.T, fault *faultinject.Injector) *stage.Cache {
	t.Helper()
	c, err := stage.OpenCache(t.TempDir(), fault)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheRoundTrip(t *testing.T) {
	c := mustOpen(t, nil)
	key := "00deadbeef"
	if _, ok := c.Get(key); ok {
		t.Fatal("hit before put")
	}
	if err := c.Put(key, "test", testFiles()); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after put")
	}
	want := testFiles()
	if len(got) != len(want) {
		t.Fatalf("got %d files, want %d", len(got), len(want))
	}
	for name, b := range want {
		if !bytes.Equal(got[name], b) {
			t.Fatalf("file %s altered: %q vs %q", name, got[name], b)
		}
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Corrupt != 0 {
		t.Fatalf("unexpected stats %+v", st)
	}

	// A second handle over the same directory — a different process,
	// as far as the cache is concerned — sees the entry.
	c2, err := stage.OpenCache(c.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key); !ok {
		t.Fatal("entry invisible to a fresh handle")
	}
}

// corruptEntry damages one committed entry in the given way and
// returns the entry directory.
func corruptEntry(t *testing.T, c *stage.Cache, key, how string) {
	t.Helper()
	dir := entryDir(c, key)
	switch how {
	case "truncate":
		if err := os.WriteFile(filepath.Join(dir, "a.txt"), []byte("alph"), 0o644); err != nil {
			t.Fatal(err)
		}
	case "garbage":
		if err := os.WriteFile(filepath.Join(dir, "b.bin"), []byte{9, 9, 9, 9, 9, 9}, 0o644); err != nil {
			t.Fatal(err)
		}
	case "missing-file":
		if err := os.Remove(filepath.Join(dir, "a.txt")); err != nil {
			t.Fatal(err)
		}
	case "manifest-garbage":
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	case "manifest-missing":
		if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown corruption %q", how)
	}
}

// TestCacheCorruptEntriesRecompute is the robustness suite: however an
// entry is damaged — truncated file, garbled bytes, half-written entry
// (missing file), garbled or missing manifest — Get must detect it,
// report a miss (so the caller recomputes), and a fresh Put must
// restore a servable entry. Never a crash, never served garbage.
func TestCacheCorruptEntriesRecompute(t *testing.T) {
	for _, how := range []string{"truncate", "garbage", "missing-file", "manifest-garbage", "manifest-missing"} {
		t.Run(how, func(t *testing.T) {
			c := mustOpen(t, nil)
			key := "ab" + how
			if err := c.Put(key, "test", testFiles()); err != nil {
				t.Fatal(err)
			}
			corruptEntry(t, c, key, how)
			if files, ok := c.Get(key); ok {
				t.Fatalf("served corrupt entry: %v", files)
			}
			// The recompute-and-rewrite path: a fresh Put must fully
			// restore the entry even though a damaged residue may exist.
			if err := c.Put(key, "test", testFiles()); err != nil {
				t.Fatal(err)
			}
			got, ok := c.Get(key)
			if !ok {
				t.Fatal("miss after recompute")
			}
			if !bytes.Equal(got["a.txt"], testFiles()["a.txt"]) || !bytes.Equal(got["b.bin"], testFiles()["b.bin"]) {
				t.Fatal("recomputed entry altered")
			}
			if st := c.Stats(); how != "manifest-missing" && st.Corrupt == 0 {
				t.Fatalf("corruption not counted: %+v", st)
			}
		})
	}
}

// TestCacheKeyMismatchDropped: an entry whose manifest answers a
// different key (e.g. a botched rename or tampering) is dropped, not
// served.
func TestCacheKeyMismatchDropped(t *testing.T) {
	c := mustOpen(t, nil)
	if err := c.Put("ab12", "test", testFiles()); err != nil {
		t.Fatal(err)
	}
	// Graft ab12's entry under another key.
	src, dst := entryDir(c, "ab12"), entryDir(c, "ab34")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(src, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, manifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("ab34"); ok {
		t.Fatal("served an entry keyed for different content")
	}
}

// TestCacheCorruptionFault proves the injected-corruption path end to
// end: an armed cache-corrupt injector garbles the Nth write AFTER
// checksumming, so the manifest no longer matches the payload; the
// next Get must detect exactly that, drop the entry, and let the
// caller recompute — at which point a clean Put heals it.
func TestCacheCorruptionFault(t *testing.T) {
	inj := faultinject.New(42, faultinject.Spec{CacheCorrupts: 1, CacheCorruptEvery: 2})
	c := mustOpen(t, inj.Scope("cache", faultinject.CacheCorrupt))

	// Put #1: clean (every 2nd put corrupts).
	if err := c.Put("aa01", "test", testFiles()); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("aa01"); !ok {
		t.Fatal("clean put unreadable")
	}
	// Put #2: garbled in flight.
	if err := c.Put("aa02", "test", testFiles()); err != nil {
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
	if err := c.Put("aa02", "test", testFiles()); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("aa02"); !ok {
		t.Fatal("healed entry unreadable")
	}
}

func TestCacheRunManifest(t *testing.T) {
	c := mustOpen(t, nil)
	if err := c.Put("ab12", "profile", testFiles()); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("cd34", "report", map[string][]byte{"report.tsv": []byte("x")}); err != nil {
		t.Fatal(err)
	}
	path, err := c.WriteRunManifest()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ab12", "cd34", "profile", "report"} {
		if !bytes.Contains(b, []byte(want)) {
			t.Fatalf("run manifest missing %q:\n%s", want, b)
		}
	}
	keys, err := c.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "ab12" || keys[1] != "cd34" {
		t.Fatalf("keys = %v", keys)
	}
}
