package hybridmem

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/units"
)

// TestPipelineEndToEnd drives all four stages on HPCG and checks every
// stage artifact is coherent.
func TestPipelineEndToEnd(t *testing.T) {
	w, err := WorkloadByName("hpcg")
	if err != nil {
		t.Fatal(err)
	}
	m := MachineFor(w)
	pr, err := Pipeline(w, PipelineConfig{
		Machine: m, Seed: 5, Budget: 128 * MB, Strategy: StrategyMisses(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Trace == nil || len(pr.Trace.Records) == 0 {
		t.Fatal("stage 1 produced no trace")
	}
	if pr.Profile == nil || len(pr.Profile.Objects) == 0 {
		t.Fatal("stage 2 produced no profile")
	}
	if pr.Profile.TotalSamples < 100 {
		t.Fatalf("too few samples: %d", pr.Profile.TotalSamples)
	}
	if pr.Report == nil || len(pr.Report.Entries) == 0 {
		t.Fatal("stage 3 selected nothing")
	}
	if pr.Run.HBWHWM <= 0 {
		t.Fatal("stage 4 placed nothing in fast memory")
	}
	if pr.Run.HBWHWM > 128*MB {
		t.Fatalf("budget exceeded: HWM = %d", pr.Run.HBWHWM)
	}
	// The framework must beat the profiling (DDR) run.
	if pr.Run.FOM <= pr.ProfilingRun.FOM {
		t.Fatalf("framework (%v) not faster than DDR profile (%v)", pr.Run.FOM, pr.ProfilingRun.FOM)
	}
}

func TestPipelineRequiresBudget(t *testing.T) {
	w, _ := WorkloadByName("cgpop")
	if _, err := Pipeline(w, PipelineConfig{Machine: MachineFor(w)}); err == nil {
		t.Fatal("pipeline without budget accepted")
	}
}

func TestTraceSurvivesSerialization(t *testing.T) {
	// The stages exchange files in the CLI tools; the library results
	// must round-trip through the codecs unchanged.
	w, _ := WorkloadByName("cgpop")
	m := MachineFor(w)
	tr, _, err := Profile(w, ProfileConfig{Machine: m, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	prof1, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	prof2, err := Analyze(tr2)
	if err != nil {
		t.Fatal(err)
	}
	if prof1.TotalSamples != prof2.TotalSamples || len(prof1.Objects) != len(prof2.Objects) {
		t.Fatal("profile differs after trace serialization")
	}
	rep, err := Advise(prof2, 64*MB, StrategyDensity)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	rep2, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Entries) != len(rep.Entries) || rep2.Budget != rep.Budget {
		t.Fatal("report differs after serialization")
	}
}

// TestAdviseNilProfile checks that every facade advise function
// rejects a nil profile (and AdvisePartitioned a nil trace) with an
// error instead of panicking.
func TestAdviseNilProfile(t *testing.T) {
	mc := TwoTier(MB)
	for _, tc := range []struct {
		name   string
		advise func() (*PlacementReport, error)
	}{
		{"Advise", func() (*PlacementReport, error) { return Advise(nil, MB, StrategyDensity) }},
		{"AdviseHierarchy", func() (*PlacementReport, error) {
			return AdviseHierarchy(context.Background(), nil, mc, StrategyDensity, nil)
		}},
		{"AdviseTimeAware", func() (*PlacementReport, error) { return AdviseTimeAware(nil, mc, StrategyDensity) }},
		{"AdvisePartitioned", func() (*PlacementReport, error) {
			return AdvisePartitioned(nil, &Trace{}, mc, StrategyDensity)
		}},
		{"AdvisePartitioned/nil trace", func() (*PlacementReport, error) {
			return AdvisePartitioned(&ObjectProfile{App: "app"}, nil, mc, StrategyDensity)
		}},
	} {
		if _, err := tc.advise(); err == nil {
			t.Errorf("%s: nil input accepted", tc.name)
		}
	}
}

func TestRunBaselineUnknown(t *testing.T) {
	w, _ := WorkloadByName("cgpop")
	if _, err := RunBaseline(w, Baseline(99), ExecuteConfig{Machine: MachineFor(w)}); err == nil {
		t.Fatal("unknown baseline accepted")
	}
}

func TestBaselineString(t *testing.T) {
	for b, want := range map[Baseline]string{
		BaselineDDR: "ddr", BaselineNumactl: "numactl",
		BaselineAutoHBW: "autohbw/1m", BaselineCacheMode: "cache",
		Baseline(4): "baseline(4)", Baseline(9): "baseline(9)",
	} {
		if b.String() != want {
			t.Errorf("Baseline(%d) = %q, want %q", b, b.String(), want)
		}
	}
}

func TestWorkloadCatalogAccessors(t *testing.T) {
	if len(Workloads()) != 8 {
		t.Fatal("catalog should have 8 workloads")
	}
	if len(WorkloadNames()) != 9 {
		t.Fatal("names should have 9 entries (Table I plus phaseshift)")
	}
	if _, err := WorkloadByName("bogus"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if StreamWorkload().Name != "stream" {
		t.Fatal("stream workload broken")
	}
}

func TestMetricsHelpers(t *testing.T) {
	if DeltaFOMPerMB(110, 100, 32*MB) <= 0 {
		t.Fatal("DeltaFOMPerMB broken")
	}
	if ImprovementPct(120, 100) != 20 {
		t.Fatal("ImprovementPct broken")
	}
}

func TestPredictAndPatternAPI(t *testing.T) {
	w, _ := WorkloadByName("hpcg")
	m := MachineFor(w)
	tr, _, err := Profile(w, ProfileConfig{Machine: m, Seed: 5, SamplePeriod: 500})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Pattern classification through the public API.
	patterns := ClassifyPatterns(prof, tr)
	if len(patterns) == 0 {
		t.Fatal("no patterns classified")
	}
	regular, irregular := 0, 0
	for _, p := range patterns {
		switch p {
		case PatternRegular:
			regular++
		case PatternIrregular:
			irregular++
		}
	}
	if regular == 0 || irregular == 0 {
		t.Fatalf("expected both classes: regular=%d irregular=%d", regular, irregular)
	}
	// Pattern-aware advising runs end to end.
	rep, err := Advise(prof, 128*MB, StrategyPatternAware(patterns))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) == 0 {
		t.Fatal("pattern-aware strategy selected nothing")
	}
	// Prediction screens budgets in the right order.
	var reports []*PlacementReport
	for _, b := range []int64{32 * MB, 256 * MB} {
		r, err := Advise(prof, b, StrategyMisses(0))
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, r)
	}
	order, preds, err := RankPlacements(tr, reports, m)
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != 1 {
		t.Fatalf("prediction ranked 32 MB above 256 MB for HPCG: %v (%v vs %v)",
			order, preds[0].SpeedupVsDDR, preds[1].SpeedupVsDDR)
	}
	single, err := PredictPlacement(tr, reports[1], m)
	if err != nil {
		t.Fatal(err)
	}
	if single.SpeedupVsDDR <= 1 {
		t.Fatalf("predicted speedup = %v", single.SpeedupVsDDR)
	}
}

// TestFigure4PointsShape pins the Figure 4 grid every consumer shares:
// the four baselines, then BudgetsFor(w) × the paper's four strategies
// budget-major, uniquely labelled, each cell's budget and strategy
// matching its label; a strategy override keeps one cell per budget.
func TestFigure4PointsShape(t *testing.T) {
	baselines := []struct {
		label string
		b     Baseline
	}{
		{"DDR", BaselineDDR}, {"MCDRAM*(numactl)", BaselineNumactl},
		{"autohbw/1m", BaselineAutoHBW}, {"cache", BaselineCacheMode},
	}
	paper := []Strategy{StrategyDensity, StrategyMisses(0), StrategyMisses(1), StrategyMisses(5)}
	for _, w := range Workloads() {
		budgets := BudgetsFor(w)
		for _, strategies := range [][]Strategy{nil, {StrategyExactNTier}} {
			want := strategies
			if want == nil {
				want = paper
			}
			pts := Figure4Points(w, 0.5, strategies...)
			if len(pts) != len(baselines)+len(budgets)*len(want) {
				t.Fatalf("%s: %d cells, want %d baselines + %d budgets x %d strategies",
					w.Name, len(pts), len(baselines), len(budgets), len(want))
			}
			seen := map[string]bool{}
			for i, p := range pts {
				if seen[p.Label] {
					t.Errorf("%s: duplicate label %q", w.Name, p.Label)
				}
				seen[p.Label] = true
				if i < len(baselines) {
					if b := baselines[i]; p.Label != b.label || p.Baseline == nil || p.Baseline.Baseline != b.b {
						t.Errorf("%s cell %d = %q, want baseline %q", w.Name, i, p.Label, b.label)
					}
					continue
				}
				k := i - len(baselines)
				budget, s := budgets[k/len(want)], want[k%len(want)]
				label := fmt.Sprintf("%s @%s", s.Name(), units.HumanBytes(budget))
				if p.Pipeline == nil || p.Label != label || p.Pipeline.Budget != budget ||
					p.Pipeline.Strategy.Name() != s.Name() || p.Pipeline.RefScale != 0.5 {
					t.Errorf("%s cell %d = %q, want pipeline %q", w.Name, i, p.Label, label)
				}
			}
		}
	}
}
