package main

import (
	"math"
	"testing"

	hm "repro"
)

func TestPickWinner(t *testing.T) {
	base := map[string]float64{"ddr": 1, "numactl": 1.5, "cache": 1.4, "autohbw": 1.1}
	for _, tc := range []struct {
		framework float64
		want      string
	}{
		{2, "framework"},
		{1.5, "framework"}, // a tie keeps the framework
		{1.45, "numactl"},
		{0.5, "numactl"},
	} {
		if got := pickWinner(tc.framework, base); got != tc.want {
			t.Errorf("pickWinner(%v) = %s, want %s", tc.framework, got, tc.want)
		}
	}
	if got := pickWinner(1, map[string]float64{"ddr": 1, "numactl": 0.9, "cache": 1.2, "autohbw": 1.2}); got != "cache" {
		t.Errorf("cache and autohbw tie above the framework: got %s, want cache (tried first)", got)
	}
}

func TestFig4Quality(t *testing.T) {
	hpcg, lulesh := &hm.Workload{Name: "hpcg"}, &hm.Workload{Name: "lulesh"}
	var cells []fig4Cell
	var foms []float64
	add := func(c fig4Cell, fom float64) {
		cells = append(cells, c)
		foms = append(foms, fom)
	}
	base := func(w *hm.Workload, name string) fig4Cell {
		for i, b := range fig4Baselines {
			if b.name == name {
				return fig4Cell{w: w, baseline: i}
			}
		}
		t.Fatalf("no baseline %s", name)
		return fig4Cell{}
	}
	pipe := func(w *hm.Workload, strat int, top bool) fig4Cell {
		return fig4Cell{w: w, baseline: -1, strat: strat, topBudget: top}
	}
	// hpcg: the framework's best top-budget cell (misses(0%), 3) beats
	// every baseline; the paper says framework. A misses(5%) cell at
	// the top budget is higher still but is not one the rule reads.
	add(base(hpcg, "ddr"), 2)
	add(base(hpcg, "numactl"), 2.5)
	add(base(hpcg, "autohbw"), 2.2)
	add(base(hpcg, "cache"), 2.4)
	add(pipe(hpcg, 0, true), 2.6)
	add(pipe(hpcg, 1, true), 3)
	add(pipe(hpcg, 3, true), 8)
	add(pipe(hpcg, 0, false), 2)
	// lulesh: numactl wins, but the paper says cache.
	add(base(lulesh, "ddr"), 1)
	add(base(lulesh, "numactl"), 1.3)
	add(base(lulesh, "autohbw"), 1)
	add(base(lulesh, "cache"), 1.2)
	add(pipe(lulesh, 1, true), 1.25)
	add(pipe(lulesh, 2, false), 4)

	pct, winners := fig4Quality(cells, foms)
	// Pipeline cells over DDR: 1.3, 1.5, 4, 1 (hpcg) and 1.25, 4 (lulesh).
	want := 100 * math.Pow(1.3*1.5*4*1*1.25*4, 1.0/6)
	if math.Abs(pct-want) > 1e-9 {
		t.Errorf("fom_vs_ddr_pct = %v, want %v", pct, want)
	}
	if winners != 1 {
		t.Errorf("paper_winners = %v, want 1", winners)
	}
}

// Every Table I application has a paper winner, and the grid has the
// shape the README states.
func TestFig4Grid(t *testing.T) {
	pts, cells := fig4Grid(7, 0.01)
	if len(pts) != 160 || len(cells) != 160 {
		t.Fatalf("grid has %d points, want 160", len(pts))
	}
	apps := map[string]int{}
	for i, c := range cells {
		apps[c.w.Name]++
		if pts[i].Label != c.label() {
			t.Errorf("point %d is %q but its cell is %q", i, pts[i].Label, c.label())
		}
	}
	for name, n := range apps {
		if n != 20 {
			t.Errorf("%s has %d cells, want 20", name, n)
		}
		if paperWinner[name] == "" {
			t.Errorf("%s has no paper winner", name)
		}
	}
	other, _ := fig4Grid(8, 0.01)
	same := true
	for i := range pts {
		same = same && pts[i].Label == other[i].Label
	}
	if same {
		t.Error("seeds 7 and 8 give the same order")
	}
}
