package stage

import (
	"bytes"
	"encoding/binary"
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
	encode := func(s string) ([]byte, error) { return []byte(s), nil }
	decode := func(b []byte) (string, error) {
		if string(b) == "bad" {
			return "", errors.New("undecodable")
		}
		return string(b), nil
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
	if err := c.Put("aa02", "test", []byte("bad")); err != nil {
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

// FuzzDecodeProfileArtifact: the profile entry codec never panics,
// refuses a body whose part lengths do not frame it exactly — short,
// overrunning or with bytes left over — and re-encodes what it accepts
// to a fixed point.
func FuzzDecodeProfileArtifact(f *testing.F) {
	w, err := apps.ByName("minife")
	if err != nil {
		f.Fatal(err)
	}
	art, err := Profile(w, ProfileParams{Machine: apps.MachineFor(w), Seed: 3, RefScale: 0.01}, engine.Config{})
	if err != nil {
		f.Fatal(err)
	}
	enc, err := EncodeProfileArtifact(art)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(enc[:len(enc)-1])
	f.Add(append(bytes.Clone(enc), 0))
	f.Add(binary.BigEndian.AppendUint64(nil, 1<<63))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		framed, rest := true, b
		for i := 0; i < 3 && framed; i++ {
			if framed = len(rest) >= 8 && binary.BigEndian.Uint64(rest) <= uint64(len(rest)-8); framed {
				rest = rest[8+binary.BigEndian.Uint64(rest):]
			}
		}
		a, err := DecodeProfileArtifact(b)
		if err != nil {
			return
		}
		if !framed || len(rest) != 0 {
			t.Fatalf("decoded a body whose part lengths do not frame it: %q", b)
		}
		once, err := EncodeProfileArtifact(a)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := DecodeProfileArtifact(once)
		if err != nil {
			t.Fatalf("decode of a re-encoding: %v", err)
		}
		if twice, err := EncodeProfileArtifact(back); err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point (%v):\n%q\n%q", err, once, twice)
		}
	})
}
