package hybridmem_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	hm "repro"
	"repro/internal/units"
)

// sweepGrid builds the mixed grid the determinism tests run: baseline
// cells, a budget×strategy pipeline plane (sharing one profile), a
// second pipeline seed (forcing a second profile), and an online cell.
func sweepGrid(w *hm.Workload, m hm.Machine) []hm.SweepPoint {
	pts := []hm.SweepPoint{
		hm.BaselinePoint("ddr", w, hm.BaselineDDR, hm.ExecuteConfig{Machine: m, Seed: 21, RefScale: 0.25}),
		hm.BaselinePoint("cache", w, hm.BaselineCacheMode, hm.ExecuteConfig{Machine: m, Seed: 21, RefScale: 0.25}),
	}
	for _, budget := range []int64{32 * units.MB, 128 * units.MB} {
		for _, st := range []struct {
			name string
			s    hm.Strategy
		}{{"m0", hm.StrategyMisses(0)}, {"density", hm.StrategyDensity}} {
			pts = append(pts, hm.PipelinePoint(st.name, w, hm.PipelineConfig{
				Machine: m, Seed: 21, Budget: budget, Strategy: st.s, RefScale: 0.25,
			}))
		}
	}
	pts = append(pts,
		hm.PipelinePoint("otherseed", w, hm.PipelineConfig{
			Machine: m, Seed: 77, Budget: 128 * units.MB, RefScale: 0.25,
		}),
		hm.OnlinePoint("online", w, hm.OnlineConfig{
			Machine: m, Seed: 21, RefScale: 0.25, Budget: 128 * units.MB,
		}),
	)
	return pts
}

// ntierSweepGrid is the exact-solver determinism grid: exact and
// density cells over several budgets of one N-tier profile, so every
// cell shares the memoized profile and the exact cells' solver work is
// the largest per-cell advise in the repo.
func ntierSweepGrid() []hm.SweepPoint {
	w := hm.NTierDemoWorkload()
	m := hm.PerRankMachine(hm.KNLOptane(), w.Ranks, w.Threads)
	var pts []hm.SweepPoint
	for _, mb := range []int64{64, 128, 256} {
		mc := hm.MemoryConfigFor(m, mb*units.MB)
		for _, st := range []struct {
			name string
			s    hm.Strategy
		}{{"exact", hm.StrategyExactNTier}, {"density", hm.StrategyDensity}} {
			pts = append(pts, hm.PipelinePoint(fmt.Sprintf("%s-%dMB", st.name, mb), w, hm.PipelineConfig{
				Machine: m, Seed: 42, Memory: &mc, Strategy: st.s, RefScale: 0.25,
			}))
		}
	}
	return pts
}

// TestSweepMatchesSerialLoop is the determinism acceptance test of the
// sweep engine: a parallel RunSweep must return results identical to
// executing every cell serially through the plain facade calls —
// memoized profiles, worker scheduling and all. It runs the mixed
// minife grid and the N-tier exact/density grid, the latter at one
// and four workers.
func TestSweepMatchesSerialLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("a full sweep grid is not -short")
	}
	w, err := hm.WorkloadByName("minife")
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name    string
		pts     []hm.SweepPoint
		workers []int
	}{
		{"mixed", sweepGrid(w, hm.MachineFor(w)), []int{4}},
		{"ntier", ntierSweepGrid(), []int{1, 4}},
	} {
		t.Run(in.name, func(t *testing.T) {
			wantRuns := make([]*hm.RunResult, len(in.pts))
			wantReports := make([]*hm.PlacementReport, len(in.pts))
			for i, p := range in.pts {
				var err error
				switch {
				case p.Pipeline != nil:
					var pr *hm.PipelineResult
					pr, err = hm.Pipeline(p.Workload, *p.Pipeline)
					if pr != nil {
						wantRuns[i], wantReports[i] = pr.Run, pr.Report
					}
				case p.Baseline != nil:
					wantRuns[i], err = hm.RunBaseline(p.Workload, p.Baseline.Baseline, p.Baseline.Config)
				default:
					wantRuns[i], err = hm.RunOnline(p.Workload, *p.Online)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, workers := range in.workers {
				par, err := hm.RunSweep(in.pts, hm.SweepOptions{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if len(par) != len(in.pts) {
					t.Fatalf("workers=%d: got %d results for %d points", workers, len(par), len(in.pts))
				}
				for i, p := range in.pts {
					if !reflect.DeepEqual(par[i].Run, wantRuns[i]) {
						t.Errorf("workers=%d point %d (%s): sweep result diverged from serial call:\nsweep:  %+v\nserial: %+v",
							workers, i, p.Label, par[i].Run, wantRuns[i])
					}
					if wantReports[i] != nil {
						var a, b bytes.Buffer
						if err := wantReports[i].Write(&a); err != nil {
							t.Fatal(err)
						}
						if err := par[i].Pipeline.Report.Write(&b); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(a.Bytes(), b.Bytes()) {
							t.Errorf("workers=%d point %d (%s): advisor report diverged:\n--- serial ---\n%s\n--- sweep ---\n%s",
								workers, i, p.Label, a.String(), b.String())
						}
					}
					if par[i].Refs != hm.SimulatedRefs(wantRuns[i]) {
						t.Errorf("workers=%d point %d (%s): refs = %d, want %d",
							workers, i, p.Label, par[i].Refs, hm.SimulatedRefs(wantRuns[i]))
					}
				}
			}
		})
	}
}

// TestSweepMemoizesProfiles checks profile-once/advise-many: every
// pipeline cell with the same profiling configuration must share the
// SAME trace and profile objects (pointer identity), while a different
// seed gets its own.
func TestSweepMemoizesProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep grid is not -short")
	}
	w, err := hm.WorkloadByName("minife")
	if err != nil {
		t.Fatal(err)
	}
	m := hm.MachineFor(w)
	pts := sweepGrid(w, m)
	res, err := hm.RunSweep(pts, hm.SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var shared, other *hm.PipelineResult
	for i, p := range pts {
		if p.Pipeline == nil {
			continue
		}
		if p.Label == "otherseed" {
			other = res[i].Pipeline
			continue
		}
		if shared == nil {
			shared = res[i].Pipeline
			continue
		}
		if res[i].Pipeline.Trace != shared.Trace || res[i].Pipeline.Profile != shared.Profile {
			t.Errorf("point %d (%s): did not share the memoized profile artifact", i, p.Label)
		}
	}
	if shared == nil || other == nil {
		t.Fatal("grid did not contain the expected pipeline cells")
	}
	if other.Trace == shared.Trace {
		t.Error("different profiling seed must not share a trace")
	}
}

// TestSweepSharesIdenticalExecutions checks execute-once: pipeline
// cells whose reports differ only in the strategy name (on one
// profile) must share the SAME run object, cells whose placements
// differ must not, traced and fault-scoped cells must share nothing,
// and every cell must still equal its serial Pipeline call.
func TestSweepSharesIdenticalExecutions(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep grid is not -short")
	}
	w, err := hm.WorkloadByName("minife")
	if err != nil {
		t.Fatal(err)
	}
	m := hm.MachineFor(w)
	// At 512 MB density and misses(0%) pick different objects, so the
	// grid holds both coinciding and diverging placements per budget.
	pts := append(sweepGrid(w, m),
		hm.PipelinePoint("m0-512", w, hm.PipelineConfig{
			Machine: m, Seed: 21, Budget: 512 * units.MB, Strategy: hm.StrategyMisses(0), RefScale: 0.25,
		}),
		hm.PipelinePoint("density-512", w, hm.PipelineConfig{
			Machine: m, Seed: 21, Budget: 512 * units.MB, Strategy: hm.StrategyDensity, RefScale: 0.25,
		}),
	)
	serial := make([]*hm.PipelineResult, len(pts))
	for i, p := range pts {
		if p.Pipeline == nil {
			continue
		}
		if serial[i], err = hm.Pipeline(p.Workload, *p.Pipeline); err != nil {
			t.Fatal(err)
		}
	}
	placement := func(rep *hm.PlacementReport) string {
		r := *rep
		r.Strategy = ""
		var b bytes.Buffer
		if err := r.Write(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	for _, tc := range []struct {
		name  string
		opts  hm.SweepOptions
		share bool
	}{
		{"plain", hm.SweepOptions{Workers: 3}, true},
		{"traced", hm.SweepOptions{Workers: 3, Obs: hm.NewFlightRecorder(io.Discard)}, false},
		// A solver node budget scopes every cell's faults (solver
		// starvation is global) without touching the greedy cells here.
		{"fault-scoped", hm.SweepOptions{Workers: 3, Fault: hm.NewFaultInjector(1, hm.FaultSpec{SolverNodeBudget: 1 << 20})}, false},
	} {
		res, err := hm.RunSweep(pts, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var shared, distinct int
		for i, p := range pts {
			if p.Pipeline == nil {
				continue
			}
			if !reflect.DeepEqual(res[i].Run, serial[i].Run) {
				t.Errorf("%s: point %d (%s): run diverged from serial Pipeline", tc.name, i, p.Label)
			}
			if res[i].Pipeline.Report.Strategy != serial[i].Report.Strategy {
				t.Errorf("%s: point %d (%s): report strategy %q, want %q", tc.name, i, p.Label,
					res[i].Pipeline.Report.Strategy, serial[i].Report.Strategy)
			}
			for j := i + 1; j < len(pts); j++ {
				if pts[j].Pipeline == nil {
					continue
				}
				same := res[i].Pipeline.Trace == res[j].Pipeline.Trace &&
					placement(res[i].Pipeline.Report) == placement(res[j].Pipeline.Report)
				if same {
					shared++
				} else {
					distinct++
				}
				if got, want := res[i].Run == res[j].Run, same && tc.share; got != want {
					t.Errorf("%s: points %d (%s) and %d (%s): run shared = %v, want %v",
						tc.name, i, p.Label, j, pts[j].Label, got, want)
				}
			}
		}
		if shared == 0 || distinct == 0 {
			t.Fatalf("%s: grid has %d coinciding and %d diverging placement pairs; need both", tc.name, shared, distinct)
		}
	}
}

// TestSweepRejectsMalformedPoints pins the facade's validation.
func TestSweepRejectsMalformedPoints(t *testing.T) {
	w := hm.StreamWorkload()
	m := hm.DefaultKNL()
	cases := []hm.SweepPoint{
		{Label: "nothing", Workload: w},
		{Label: "both", Workload: w,
			Pipeline: &hm.PipelineConfig{Machine: m, Budget: units.MB},
			Online:   &hm.OnlineConfig{Machine: m}},
		hm.PipelinePoint("noworkload", nil, hm.PipelineConfig{Machine: m, Budget: units.MB}),
		hm.PipelinePoint("nobudget", w, hm.PipelineConfig{Machine: m}),
	}
	for _, p := range cases {
		if _, err := hm.RunSweep([]hm.SweepPoint{p}, hm.SweepOptions{}); err == nil {
			t.Errorf("point %q: RunSweep accepted a malformed point", p.Label)
		}
	}
}
