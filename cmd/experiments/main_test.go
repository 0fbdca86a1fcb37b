package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// runAsMainEnv, when set, makes the test binary run main instead of
// the tests, so a test can execute the command and observe its exit
// status.
const runAsMainEnv = "EXPERIMENTS_TEST_RUN_MAIN"

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
		t.Logf("experiments %v: %s", args, out)
		return ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0
}

// TestTraceWriteFailureExitsNonZero pins that a -trace file that
// cannot be written fails the command instead of reporting success.
// Figure 3 is the cheapest mode; the trace's file-level manifest is
// written whatever the mode.
func TestTraceWriteFailureExitsNonZero(t *testing.T) {
	if code := exitCode(t, "-fig", "3", "-trace", filepath.Join(t.TempDir(), "e.jsonl")); code != 0 {
		t.Fatalf("writable trace: exit %d, want 0", code)
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	if code := exitCode(t, "-fig", "3", "-trace", "/dev/full"); code != 1 {
		t.Fatalf("trace to /dev/full: exit %d, want 1", code)
	}
}

// manifestFP runs the command with args, tracing into a fresh file,
// and returns the config_fp of the trace's file-level manifest.
func manifestFP(t *testing.T, name string, args ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if code := exitCode(t, append(args, "-trace", path)...); code != 0 {
		t.Fatalf("experiments %v: exit %d", args, code)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatalf("%s: empty trace (%v)", path, sc.Err())
	}
	var m struct {
		ConfigFP string `json:"config_fp"`
	}
	if err := json.Unmarshal(sc.Bytes(), &m); err != nil || m.ConfigFP == "" {
		t.Fatalf("%s: first line %s: no config_fp (%v)", path, sc.Bytes(), err)
	}
	return m.ConfigFP
}

// TestConfigFingerprintIgnoresOutputPaths pins that the manifest's
// config_fp identifies what shapes the results, not where they go: the
// same run traced to two files fingerprints alike, and a different
// -scale does not. Figure 3 is the cheapest mode; the manifest is the
// same whatever the mode.
func TestConfigFingerprintIgnoresOutputPaths(t *testing.T) {
	a := manifestFP(t, "a.jsonl", "-fig", "3")
	b := manifestFP(t, "b.jsonl", "-fig", "3")
	if a != b {
		t.Errorf("same run, two trace files: config_fp %s vs %s", a, b)
	}
	if c := manifestFP(t, "c.jsonl", "-fig", "3", "-scale", "0.5"); c == a {
		t.Errorf("-scale 0.5 and 1 share config_fp %s", a)
	}
}
