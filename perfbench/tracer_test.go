package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// spansOf builds a span list from (parent, start, end) triples; ids
// are 1-based positions.
func spansOf(name string, iv ...[3]int64) []span {
	out := make([]span, len(iv))
	for i, x := range iv {
		out[i] = span{ID: i + 1, Parent: int(x[0]), Name: name, Start: x[1], End: x[2]}
	}
	return out
}

func TestSelfTimeNestedChildren(t *testing.T) {
	spans := spansOf("s",
		[3]int64{0, 0, 100},   // 1: root
		[3]int64{1, 10, 40},   // 2: child of root
		[3]int64{2, 20, 30},   // 3: grandchild, inside 2
		[3]int64{1, 35, 60},   // 4: child of root overlapping 2 (a concurrent client)
		[3]int64{4, 50, 80},   // 5: child of 4 running past its parent's end
		[3]int64{0, 200, 210}, // 6: a second root with no children
	)
	got := selfTimes(spans)
	// Root: children cover the union [10, 60], 50 of its 100.
	// 2: its grandchild covers 10 of 30. 3: leaf. 4: the child is
	// clipped to [50, 60], 10 of 25. 5: leaf. 6: leaf.
	want := []int64{50, 20, 10, 15, 30, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", i+1, got[i], want[i])
		}
	}
}

func TestCovered(t *testing.T) {
	for _, tc := range []struct {
		iv     [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{2, 4}, {6, 9}}, 0, 10, 5},
		{[][2]int64{{6, 9}, {2, 4}, {3, 7}}, 0, 10, 7},
		{[][2]int64{{-5, 3}, {8, 20}}, 0, 10, 5},
		{[][2]int64{{12, 20}}, 0, 10, 0},
		{[][2]int64{{1, 2}, {2, 3}}, 0, 10, 2},
	} {
		if got := covered(tc.iv, tc.lo, tc.hi); got != tc.want {
			t.Errorf("covered(%v, %d, %d) = %d, want %d", tc.iv, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestByNameAndUnattributed(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: spanPass, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanProfile, Start: 0, End: 50},
		{ID: 3, Parent: 1, Name: spanAnalyze, Start: 50, End: 60},
		{ID: 4, Parent: 1, Name: spanProfile, Start: 70, End: 90},
		{ID: 5, Name: spanPass, Start: 100, End: 200},
		{ID: 6, Parent: 5, Name: spanExecute, Start: 100, End: 200},
		{ID: 7, Name: "reference", Start: 300, End: 400},
	}}
	lt := tr.byName()
	if lt[spanProfile].calls != 2 || lt[spanProfile].self != 70 {
		t.Errorf("profile = %+v, want 2 calls, self 70", lt[spanProfile])
	}
	if lt[spanPass].calls != 2 || lt[spanPass].self != 20 {
		t.Errorf("pass = %+v, want 2 calls, self 20", lt[spanPass])
	}
	// 20 of the passes' 200 are uncovered; the reference root is not a
	// pass and does not count.
	if got := tr.unattributed(spanPass); got != 0.1 {
		t.Errorf("unattributed = %v, want 0.1", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", 0, 0); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	tr.end(0)
}

func TestTracerWritesSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin(spanPass, 0, 0)
	tr.end(tr.begin(spanProfile, root, 7))
	tr.end(root)
	path := filepath.Join(t.TempDir(), "spans", "x.jsonl")
	if err := tr.writeFile(path, manifest{Workload: "w"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []map[string]any
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 || lines[0]["manifest"] == nil {
		t.Fatalf("got %v, want a manifest and two spans", lines)
	}
	child := lines[2]
	if child["name"] != spanProfile || child["parent"] != float64(root) || child["req"] != float64(7) {
		t.Errorf("child span = %v", child)
	}
	if child["end_ns"].(float64) < child["start_ns"].(float64) {
		t.Errorf("span ends before it starts: %v", child)
	}
}
