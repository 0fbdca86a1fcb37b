package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// updateDoc rewrites EXPERIMENTS.md's measured blocks from the
// commands' output instead of comparing them.
var updateDoc = flag.Bool("update", false, "rewrite EXPERIMENTS.md's measured blocks")

// docPath is the document whose measured blocks TestExperimentsDoc
// checks.
const docPath = "../../EXPERIMENTS.md"

// docMarker opens a measured block: the fenced block on the next line
// holds the stdout of the experiments command the marker names.
var docMarker = regexp.MustCompile("^<!-- (experiments .*) -->\n$")

// TestExperimentsDoc checks that every measured block of
// EXPERIMENTS.md — a "<!-- experiments ARGS -->" marker followed by a
// fenced block — equals the stdout of that command byte for byte. A
// marker may chain commands with " && "; they run in order in one
// scratch directory and the block holds the last one's stdout. Each
// marker runs once. -update rewrites the blocks instead.
func TestExperimentsDoc(t *testing.T) {
	if testing.Short() {
		t.Skip("the documented runs are not -short")
	}
	doc, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(doc), "\n")
	var out strings.Builder
	blocks := 0
	for i := 0; i < len(lines); i++ {
		out.WriteString(lines[i])
		m := docMarker.FindStringSubmatch(lines[i])
		if m == nil {
			continue
		}
		if i+1 == len(lines) || lines[i+1] != "```\n" {
			t.Fatalf("%s:%d: marker is not followed by a ``` fence", docPath, i+1)
		}
		end := i + 2
		for end < len(lines) && lines[end] != "```\n" {
			end++
		}
		if end == len(lines) {
			t.Fatalf("%s:%d: unterminated block", docPath, i+2)
		}
		want := runDocCommand(t, m[1])
		if got := strings.Join(lines[i+2:end], ""); got != want && !*updateDoc {
			n, g, w := firstDiff(got, want)
			t.Errorf("%s:%d: block differs from `%s` at its line %d:\n doc: %q\n run: %q\n(go test ./cmd/experiments -run TestExperimentsDoc -update rewrites it)",
				docPath, i+1, m[1], n, g, w)
		}
		out.WriteString(lines[i+1] + want + lines[end])
		i = end
		blocks++
	}
	if blocks == 0 {
		t.Fatalf("%s has no measured blocks", docPath)
	}
	if *updateDoc {
		if err := os.WriteFile(docPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// runDocCommand runs a marker's command chain through the test binary
// in a scratch directory and returns the last command's stdout.
func runDocCommand(t *testing.T, chain string) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var stdout []byte
	for _, c := range strings.Split(chain, " && ") {
		args := strings.Fields(c)
		if args[0] != "experiments" {
			t.Fatalf("marker command %q does not run experiments", c)
		}
		cmd := exec.Command(exe, args[1:]...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), runAsMainEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if stdout, err = cmd.Output(); err != nil {
			t.Fatalf("%s: %v\n%s", c, err, stderr.Bytes())
		}
	}
	if len(stdout) > 0 && stdout[len(stdout)-1] != '\n' {
		t.Fatalf("%s: output does not end in a newline", chain)
	}
	return string(stdout)
}

// firstDiff returns the 1-based number of the first line where a and
// b differ, and that line of each ("" past the end).
func firstDiff(a, b string) (int, string, string) {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; ; i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y || i >= len(al) || i >= len(bl) {
			return i + 1, x, y
		}
	}
}
