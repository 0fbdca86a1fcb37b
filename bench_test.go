package hybridmem

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus an ablation of the advisor's greedy knapsack. Each
// benchmark executes the same simulation the corresponding
// cmd/experiments mode prints, and reports the figure's headline
// quantity as a custom metric so `go test -bench` output carries the
// reproduced series:
//
//	Figure 1  -> GB/s            (BenchmarkFigure1StreamTriad)
//	Figure 3  -> modeled µs      (BenchmarkFigure3UnwindTranslate)
//	Table I   -> overhead %      (BenchmarkTableICharacteristics)
//	Figure 4  -> FOM & vs-DDR %  (BenchmarkFigure4)
//	Figure 5  -> fold + dip %    (BenchmarkFigure5Folding)
//
// Run everything:  go test -bench=. -benchmem

import (
	"fmt"
	"testing"

	"repro/internal/advisor"
	"repro/internal/callstack"
	"repro/internal/units"
	"repro/internal/xrand"
)

// BenchmarkFigure1StreamTriad regenerates the STREAM bandwidth curves
// at three representative core counts per memory configuration.
func BenchmarkFigure1StreamTriad(b *testing.B) {
	w := StreamWorkload()
	node := DefaultKNL()
	for _, cores := range []int{1, 16, 68} {
		for _, bl := range []Baseline{BaselineDDR, BaselineNumactl, BaselineCacheMode} {
			name := fmt.Sprintf("%s/cores-%d", bl, cores)
			b.Run(name, func(b *testing.B) {
				var bw float64
				for i := 0; i < b.N; i++ {
					res, err := RunBaseline(w, bl, ExecuteConfig{Machine: node, Cores: cores, Seed: 7})
					if err != nil {
						b.Fatal(err)
					}
					bw = res.FOM
				}
				b.ReportMetric(bw, "GB/s")
			})
		}
	}
}

// BenchmarkFigure3UnwindTranslate measures the real lookup work of
// call-stack unwinding and translation per depth and reports the
// modeled microseconds of Figure 3 (crossover beyond depth 6).
func BenchmarkFigure3UnwindTranslate(b *testing.B) {
	prog := callstack.NewProgram("fig3", xrand.New(1))
	frames := []string{"main", "a", "b", "c", "d", "e", "f", "g", "h"}
	for depth := 1; depth <= 9; depth++ {
		stack := prog.Site(frames[:depth]...)
		b.Run(fmt.Sprintf("unwind/depth-%d", depth), func(b *testing.B) {
			dst := make(callstack.Stack, len(stack))
			for i := 0; i < b.N; i++ {
				copy(dst, stack)
				_ = dst.Fingerprint()
			}
			b.ReportMetric(callstack.UnwindCost(depth).Micros(units.DefaultClockHz), "modeled-µs")
		})
		b.Run(fmt.Sprintf("translate/depth-%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = prog.Table.Translate(stack)
			}
			b.ReportMetric(callstack.TranslateCost(depth).Micros(units.DefaultClockHz), "modeled-µs")
		})
	}
}

// BenchmarkTableICharacteristics runs the monitored (Extrae) execution
// of every application and reports the Table I monitoring overhead.
func BenchmarkTableICharacteristics(b *testing.B) {
	for _, w := range Workloads() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			m := MachineFor(w)
			var overheadPct, samples float64
			for i := 0; i < b.N; i++ {
				_, res, err := Profile(w, ProfileConfig{Machine: m, Seed: 11})
				if err != nil {
					b.Fatal(err)
				}
				overheadPct = res.MonitorOverheadFraction() * 100
				samples = float64(res.Samples)
			}
			b.ReportMetric(overheadPct, "overhead-%")
			b.ReportMetric(samples, "samples")
		})
	}
}

// BenchmarkFigure4 regenerates, per application, the DDR reference,
// the cache-mode baseline and the framework at the largest swept
// budget, reporting the improvement over DDR.
func BenchmarkFigure4(b *testing.B) {
	for _, w := range Workloads() {
		w := w
		m := MachineFor(w)
		budgets := BudgetsFor(w)
		budget := budgets[len(budgets)-1]
		b.Run(w.Name+"/ddr", func(b *testing.B) {
			var fom float64
			for i := 0; i < b.N; i++ {
				res, err := RunBaseline(w, BaselineDDR, ExecuteConfig{Machine: m, Seed: 21})
				if err != nil {
					b.Fatal(err)
				}
				fom = res.FOM
			}
			b.ReportMetric(fom, "FOM")
		})
		b.Run(w.Name+"/cache", func(b *testing.B) {
			var fom float64
			for i := 0; i < b.N; i++ {
				res, err := RunBaseline(w, BaselineCacheMode, ExecuteConfig{Machine: m, Seed: 21})
				if err != nil {
					b.Fatal(err)
				}
				fom = res.FOM
			}
			b.ReportMetric(fom, "FOM")
		})
		b.Run(w.Name+"/framework", func(b *testing.B) {
			var fom float64
			for i := 0; i < b.N; i++ {
				pr, err := Pipeline(w, PipelineConfig{
					Machine: m, Seed: 21, Budget: budget, Strategy: StrategyMisses(0),
				})
				if err != nil {
					b.Fatal(err)
				}
				fom = pr.Run.FOM
			}
			b.ReportMetric(fom, "FOM")
		})
	}
}

// BenchmarkFigure5Folding measures the folding analysis of the SNAP
// framework run and reports the outer_src_calc MIPS dip depth.
func BenchmarkFigure5Folding(b *testing.B) {
	w, err := WorkloadByName("snap")
	if err != nil {
		b.Fatal(err)
	}
	m := MachineFor(w)
	pr, err := Pipeline(w, PipelineConfig{
		Machine: m, Seed: 31, Budget: 256 * MB, Strategy: StrategyMisses(0), SamplePeriod: 600,
	})
	if err != nil {
		b.Fatal(err)
	}
	tr, _, err := ProfileWithPolicy(w, ProfileConfig{Machine: m, Seed: 33, SamplePeriod: 600}, pr.Report)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var dipPct float64
	for i := 0; i < b.N; i++ {
		f, err := Fold(tr, 48, m.ClockHz)
		if err != nil {
			b.Fatal(err)
		}
		minOuter, _, _ := f.MinMIPSIn("outer_src_calc")
		dipPct = minOuter / f.GlobalMaxMIPS() * 100
	}
	b.ReportMetric(dipPct, "dip-%of-peak")
}

// BenchmarkSweepFigure4 runs one application's full Figure 4 grid
// through the sweep engine: the profile is computed once, the 16
// advise+execute cells and 4 baselines fan out across the worker pool.
// Compare against BenchmarkSweepFigure4Serial — the naive loop that
// re-profiles per cell — for the speedup the sweep engine buys; the
// FOM metric pins that both produce the same physics.
func BenchmarkSweepFigure4(b *testing.B) {
	w, err := WorkloadByName("minife")
	if err != nil {
		b.Fatal(err)
	}
	var fom float64
	for i := 0; i < b.N; i++ {
		res, err := RunSweep(Figure4Points(w, 1), SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		fom = res[len(res)-1].Run.FOM
	}
	b.ReportMetric(fom, "FOM")
}

// BenchmarkSweepFigure4Serial is the pre-sweep reference: the same
// grid as BenchmarkSweepFigure4 executed the way cmd/experiments used
// to — serially, re-running Profile+Analyze for every pipeline cell.
func BenchmarkSweepFigure4Serial(b *testing.B) {
	w, err := WorkloadByName("minife")
	if err != nil {
		b.Fatal(err)
	}
	var fom float64
	for i := 0; i < b.N; i++ {
		for _, p := range Figure4Points(w, 1) {
			var res *RunResult
			var err error
			switch {
			case p.Pipeline != nil:
				var pr *PipelineResult
				pr, err = Pipeline(p.Workload, *p.Pipeline)
				if pr != nil {
					res = pr.Run
				}
			case p.Baseline != nil:
				res, err = RunBaseline(p.Workload, p.Baseline.Baseline, p.Baseline.Config)
			}
			if err != nil {
				b.Fatal(err)
			}
			fom = res.FOM
		}
	}
	b.ReportMetric(fom, "FOM")
}

// BenchmarkOnlineEpochResolve measures the online placer's epoch
// re-solve loop and the live migration it triggers: every epoch
// re-runs the waterfall over the live footprint, and the phaseshift
// workload drives many epochs with a shifting hot set. At full scale
// and a 16 MB budget the migration gate accepts moves (at scale 0.25 it
// rejects every plan), so the run repacks objects over several move
// epochs; the benchmark fails if it stops doing so. Reported metrics
// come from the run's always-on solver and placer counters.
func BenchmarkOnlineEpochResolve(b *testing.B) {
	w, err := WorkloadByName("phaseshift")
	if err != nil {
		b.Fatal(err)
	}
	m := MachineFor(w)
	var metrics map[string]int64
	for i := 0; i < b.N; i++ {
		res, err := RunOnline(w, OnlineConfig{
			Machine: m, Seed: 21, RefScale: 1, Budget: 16 * units.MB,
		})
		if err != nil {
			b.Fatal(err)
		}
		metrics = res.Metrics
	}
	if metrics["online_move_epochs"] == 0 {
		b.Fatal("no epoch moved an object: the benchmark no longer reaches the migration path")
	}
	b.ReportMetric(float64(metrics["solver_resolves"]), "resolves")
	b.ReportMetric(float64(metrics["solver_objects_repacked"]), "repacked")
	b.ReportMetric(float64(metrics["online_move_epochs"]), "move-epochs")
}

// --- Ablation ---

// BenchmarkAblationKnapsackExactVsGreedy demonstrates why hmem_advisor
// ships greedy relaxations: the exact pseudo-polynomial DP blows up
// with object count and budget while the greedy packs stay linear.
func BenchmarkAblationKnapsackExactVsGreedy(b *testing.B) {
	r := xrand.New(42)
	objs := make([]advisor.Object, 300)
	for i := range objs {
		objs[i] = advisor.Object{
			ID:     fmt.Sprintf("o%03d", i),
			Size:   int64(r.Intn(64)+1) * units.MB,
			Misses: int64(r.Intn(100000) + 1),
		}
	}
	const budget = 2 * units.GB
	for _, s := range []advisor.Strategy{
		advisor.MissesStrategy{}, advisor.DensityStrategy{}, advisor.ExactDP{},
	} {
		s := s
		b.Run(s.Name(), func(b *testing.B) {
			var moved int64
			for i := 0; i < b.N; i++ {
				moved = 0
				for _, o := range s.Select(objs, budget) {
					moved += o.Misses
				}
			}
			b.ReportMetric(float64(moved), "misses-moved")
		})
	}
}
