package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/paramedir"
	"repro/internal/units"
)

// runAsMainEnv, when set, makes the test binary run main instead of
// the tests, so a test can execute the command and observe its exit
// status.
const runAsMainEnv = "HMEMADVISOR_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// exitCode runs the command with args and returns its exit status.
func exitCode(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		t.Logf("hmemadvisor %v: %s", args, out)
		return ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0
}

// TestTraceWriteFailureExitsNonZero pins that a -trace file that
// cannot be written fails the command instead of reporting success.
func TestTraceWriteFailureExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "h.csv")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	prof := &paramedir.Profile{App: "hpcg", SamplePeriod: 1, TotalSamples: 10, Objects: []paramedir.ObjectStat{
		{ID: "main>alloc_a", Site: "main>alloc_a", MaxSize: 8 * units.MB, Misses: 10, AllocCount: 1},
	}}
	if err := prof.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "h.rep")

	if code := exitCode(t, "-in", in, "-out", out, "-trace", filepath.Join(dir, "h.jsonl")); code != 0 {
		t.Fatalf("writable trace: exit %d, want 0", code)
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	if code := exitCode(t, "-in", in, "-out", out, "-trace", "/dev/full"); code != 1 {
		t.Fatalf("trace to /dev/full: exit %d, want 1", code)
	}
}

// TestParseBudget pins the -budget grammar: a positive byte count with
// an optional K, M or G suffix. Overflowing and non-positive values are
// refused with an error that quotes the flag value as given.
func TestParseBudget(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
	}{
		{"256M", 256 * units.MB},
		{"16G", 16 * units.GB},
		{"4K", 4 * units.KB},
		{"4096", 4096},
		{"8589934591G", 8589934591 * units.GB},
	} {
		got, err := parseBudget(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("parseBudget(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{
		"17179869185G",         // wraps to exactly 1 GB
		"99999999999G",         // wraps negative
		"9223372036854775807K", // MaxInt64 kilobytes
		"9223372036854775808",  // beyond int64 before any suffix
		"0", "0M", "-5M", "-1",
		"", "M", "12X", "1.5G",
	} {
		got, err := parseBudget(bad)
		if err == nil {
			t.Errorf("parseBudget(%q) = %d, want an error", bad, got)
			continue
		}
		if want := fmt.Sprintf("bad budget %q", bad); !strings.HasPrefix(err.Error(), want) {
			t.Errorf("parseBudget(%q) error %q does not start with %s", bad, err, want)
		}
	}
}
