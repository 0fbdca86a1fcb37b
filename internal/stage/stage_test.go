package stage

import (
	"errors"
	"testing"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/obs"
)

// TestProfileFingerprintSurvivesCodec pins the invariant the daemon's
// memo relies on: it holds computed profiles after a miss and decoded
// ones after a restart, and both must key the same reports, so a
// profile's StrongFingerprint must not change across the artifact
// codec round trip.
func TestProfileFingerprintSurvivesCodec(t *testing.T) {
	for _, w := range apps.Catalog() {
		art, err := Profile(w, ProfileParams{Machine: apps.MachineFor(w), Seed: 3, RefScale: 0.1}, engine.Config{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		files, err := EncodeProfileArtifact(art)
		if err != nil {
			t.Fatalf("%s: encode: %v", w.Name, err)
		}
		back, err := DecodeProfileArtifact(files)
		if err != nil {
			t.Fatalf("%s: decode: %v", w.Name, err)
		}
		if got, want := obs.StrongFingerprint(back.Profile), obs.StrongFingerprint(art.Profile); got != want {
			t.Errorf("%s: profile fingerprint %s after the codec round trip, %s before", w.Name, got, want)
		}
	}
}

// TestLoadDisk walks the disk tier through its three outcomes: a miss
// computes and commits, a hit decodes without computing, and an entry
// that verifies but does not decode is dropped and recomputed.
func TestLoadDisk(t *testing.T) {
	c, err := OpenCache(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(s string) (map[string][]byte, error) { return map[string][]byte{"v": []byte(s)}, nil }
	decode := func(files map[string][]byte) (string, error) {
		if string(files["v"]) == "bad" {
			return "", errors.New("undecodable")
		}
		return string(files["v"]), nil
	}
	computes := 0
	load := func(key, val string) (string, bool, error) {
		return Load(c, key, "test", encode, decode, func() (string, error) { computes++; return val, nil })
	}

	if v, fromDisk, err := load("aa01", "x"); err != nil || fromDisk || v != "x" || computes != 1 {
		t.Fatalf("miss: (%q, %v, %v) after %d computes, want (x, false, nil) after 1", v, fromDisk, err, computes)
	}
	if v, fromDisk, err := load("aa01", "y"); err != nil || !fromDisk || v != "x" || computes != 1 {
		t.Fatalf("hit: (%q, %v, %v) after %d computes, want (x, true, nil) after 1", v, fromDisk, err, computes)
	}
	if err := c.Put("aa02", "test", map[string][]byte{"v": []byte("bad")}); err != nil {
		t.Fatal(err)
	}
	if v, fromDisk, err := load("aa02", "z"); err != nil || fromDisk || v != "z" || computes != 2 {
		t.Fatalf("undecodable: (%q, %v, %v) after %d computes, want (z, false, nil) after 2", v, fromDisk, err, computes)
	}
	if st := c.Stats(); st.Corrupt != 1 {
		t.Fatalf("undecodable entry not dropped: %+v", st)
	}
	if v, fromDisk, _ := load("aa02", "w"); !fromDisk || v != "z" {
		t.Fatalf("recomputed entry not committed: (%q, %v)", v, fromDisk)
	}
}
