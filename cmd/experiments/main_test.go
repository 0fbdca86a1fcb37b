package main

import (
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
