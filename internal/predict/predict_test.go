package predict

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/advisor"
	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/interpose"
	"repro/internal/mem"
	"repro/internal/paramedir"
	"repro/internal/units"
)

// profileApp runs the monitored DDR execution of a workload.
func profileApp(t *testing.T, name string) (*engine.Workload, mem.Machine, *engine.Result) {
	t.Helper()
	w, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m := apps.MachineFor(w)
	res, err := engine.Run(w, engine.Config{
		Machine: m, Seed: 9, MakePolicy: baseline.DDR(),
		Monitor: &engine.MonitorConfig{SamplePeriod: 1499, MinAllocSize: 4 * units.KB},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, m, res
}

func adviseBudget(t *testing.T, res *engine.Result, budget int64) *advisor.Report {
	t.Helper()
	prof, err := paramedir.Analyze(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := advisor.Advise(context.Background(), prof.App, advisor.FromProfile(prof), advisor.TwoTier(budget), advisor.MissesStrategy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestReplayPredictsSpeedupDirection(t *testing.T) {
	w, m, profRun := profileApp(t, "hpcg")
	rep := adviseBudget(t, profRun, 256*units.MB)

	pred, err := Replay(profRun.Trace, rep, m)
	if err != nil {
		t.Fatal(err)
	}
	if pred.SpeedupVsDDR <= 1 {
		t.Fatalf("predicted speedup = %v, want > 1 for a hot-object placement", pred.SpeedupVsDDR)
	}
	if pred.MovedMissFraction <= 0 || pred.MovedMissFraction >= 1 {
		t.Fatalf("moved fraction = %v, want in (0,1)", pred.MovedMissFraction)
	}

	// Compare against the actual stage-4 run.
	actual, err := engine.Run(w, engine.Config{
		Machine: m, Seed: 10, MakePolicy: interpose.Factory(rep, interpose.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ddr, err := engine.Run(w, engine.Config{Machine: m, Seed: 10, MakePolicy: baseline.DDR()})
	if err != nil {
		t.Fatal(err)
	}
	actualSpeedup := ddr.Seconds / actual.Seconds
	// Prediction within a factor of ~1.6 of the measured speedup —
	// the paper expects screening precision, not cycle accuracy.
	if pred.SpeedupVsDDR > actualSpeedup*1.6 || pred.SpeedupVsDDR < actualSpeedup/1.6 {
		t.Errorf("predicted %vx vs actual %vx: outside the screening band", pred.SpeedupVsDDR, actualSpeedup)
	}
}

func TestReplayRanksBudgetsLikeReality(t *testing.T) {
	w, m, profRun := profileApp(t, "hpcg")
	budgets := []int64{32 * units.MB, 128 * units.MB, 256 * units.MB}
	var reports []*advisor.Report
	for _, b := range budgets {
		reports = append(reports, adviseBudget(t, profRun, b))
	}
	order, preds, err := RankPlacements(profRun.Trace, reports, m)
	if err != nil {
		t.Fatal(err)
	}
	// HPCG gains grow with budget: the predictor must rank 256 > 128 > 32.
	if order[0] != 2 || order[1] != 1 || order[2] != 0 {
		t.Fatalf("predicted order = %v (speedups %v, %v, %v), want [2 1 0]",
			order, preds[0].SpeedupVsDDR, preds[1].SpeedupVsDDR, preds[2].SpeedupVsDDR)
	}
	_ = w
}

func TestReplayStaticPlacementPredictsNothing(t *testing.T) {
	_, m, profRun := profileApp(t, "snap")
	// A report that selects only a static object: the interposer can
	// move nothing, so prediction must be ~1x.
	rep := &advisor.Report{App: "snap", Budget: 256 * units.MB, Entries: []advisor.Entry{
		{Tier: "MCDRAM", ID: "static:geom.statics", Static: true, Size: 600 * units.MB},
	}}
	pred, err := Replay(profRun.Trace, rep, m)
	if err != nil {
		t.Fatal(err)
	}
	if pred.MovedMissFraction != 0 {
		t.Fatalf("static-only selection moved %v of misses", pred.MovedMissFraction)
	}
	if pred.SpeedupVsDDR < 0.99 || pred.SpeedupVsDDR > 1.01 {
		t.Fatalf("static-only speedup = %v, want ~1", pred.SpeedupVsDDR)
	}
}

func TestReplayErrors(t *testing.T) {
	_, m, profRun := profileApp(t, "cgpop")
	if _, err := Replay(nil, &advisor.Report{}, m); err == nil {
		t.Fatal("nil trace accepted")
	}
	if _, err := Replay(profRun.Trace, nil, m); err == nil {
		t.Fatal("nil report accepted")
	}
	bad := m
	bad.Cores = 0
	if _, err := Replay(profRun.Trace, &advisor.Report{}, bad); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

func TestReplayPhaseSpeedups(t *testing.T) {
	_, m, profRun := profileApp(t, "snap")
	rep := adviseBudget(t, profRun, 64*units.MB)
	pred, err := Replay(profRun.Trace, rep, m)
	if err != nil {
		t.Fatal(err)
	}
	// The sweep phases (whose chunks are promoted) must be predicted
	// faster; outer_src_calc (stack-bound) must not improve much.
	oct, ok1 := pred.PhaseSpeedups["octsweep"]
	outer, ok2 := pred.PhaseSpeedups["outer_src_calc"]
	if !ok1 || !ok2 {
		t.Fatalf("phase speedups missing: %v", pred.PhaseSpeedups)
	}
	if oct <= outer {
		t.Errorf("octsweep speedup (%v) should exceed outer_src_calc (%v): stack not movable", oct, outer)
	}
}

func TestEpochDelta(t *testing.T) {
	m := mem.DefaultKNL()
	if d := EpochDelta(&m, m.Cores, 0, mem.TierDDR, mem.TierMCDRAM); d != 0 {
		t.Errorf("zero misses gained %v", d)
	}
	if d := EpochDelta(&m, m.Cores, 1_000_000, mem.TierDDR, mem.TierDDR); d != 0 {
		t.Errorf("same-tier move gained %v", d)
	}
	up := EpochDelta(&m, m.Cores, 1_000_000, mem.TierDDR, mem.TierMCDRAM)
	if up <= 0 {
		t.Fatalf("promoting a million misses gained %v cycles", up)
	}
	// More misses, more gain.
	if more := EpochDelta(&m, m.Cores, 2_000_000, mem.TierDDR, mem.TierMCDRAM); more <= up {
		t.Errorf("gain did not grow with miss volume: %v vs %v", more, up)
	}
}

func TestEpochDeltaSignsAcrossHierarchy(t *testing.T) {
	m := mem.KNLOptane()
	const misses = 1_000_000
	up := EpochDelta(&m, m.Cores, misses, mem.TierDDR, mem.TierMCDRAM)
	if up <= 0 {
		t.Fatalf("DDR->MCDRAM delta = %v, want positive", up)
	}
	down := EpochDelta(&m, m.Cores, misses, mem.TierDDR, mem.TierNVM)
	if down >= 0 {
		t.Fatalf("DDR->NVM delta = %v, want negative (demotion below DDR costs time)", down)
	}
	// Rescuing data off the NVM floor is worth more than the same
	// promotion from DDR.
	rescue := EpochDelta(&m, m.Cores, misses, mem.TierNVM, mem.TierMCDRAM)
	if rescue <= up {
		t.Fatalf("NVM->MCDRAM delta %v not above DDR->MCDRAM %v", rescue, up)
	}
	// Antisymmetry: a move and its reverse cancel.
	if back := EpochDelta(&m, m.Cores, misses, mem.TierNVM, mem.TierDDR); back != -down {
		t.Fatalf("delta not antisymmetric: %v vs %v", back, -down)
	}
}

// TestReplayHonorsPerEntryTiers replays one trace against two N-tier
// reports that differ only in WHERE the hot object's entry points: a
// placement naming the fastest tier must predict faster than one
// naming the NVM floor — the per-entry tier resolution the two-tier
// replay never needed.
func TestReplayHonorsPerEntryTiers(t *testing.T) {
	_, _, profRun := profileApp(t, "hpcg")
	m := mem.KNLOptane()
	rep := adviseBudget(t, profRun, 256*units.MB)
	if len(rep.Entries) == 0 {
		t.Fatal("no entries to retarget")
	}
	slow := &advisor.Report{App: rep.App, Strategy: rep.Strategy, Budget: rep.Budget}
	slow.Entries = append([]advisor.Entry(nil), rep.Entries...)
	for i := range slow.Entries {
		slow.Entries[i].Tier = "NVM"
	}
	idx, preds, err := RankPlacements(profRun.Trace, []*advisor.Report{slow, rep}, m)
	if err != nil {
		t.Fatal(err)
	}
	if idx[0] != 1 {
		t.Fatalf("MCDRAM placement not ranked first: order %v, speedups %v/%v",
			idx, preds[0].SpeedupVsDDR, preds[1].SpeedupVsDDR)
	}
	if preds[0].SpeedupVsDDR >= 1 {
		t.Fatalf("NVM-floor placement predicted speedup %v, want < 1 (slower than DDR)", preds[0].SpeedupVsDDR)
	}
	if preds[1].SpeedupVsDDR <= 1 {
		t.Fatalf("MCDRAM placement predicted speedup %v, want > 1", preds[1].SpeedupVsDDR)
	}
}

// TestRankPlacementsMatchesReplay pins that RankPlacements' single
// walk of the trace predicts exactly what one Replay per report does.
func TestRankPlacementsMatchesReplay(t *testing.T) {
	_, m, profRun := profileApp(t, "hpcg")
	var reports []*advisor.Report
	for _, b := range []int64{32 * units.MB, 128 * units.MB, 256 * units.MB} {
		reports = append(reports, adviseBudget(t, profRun, b))
	}
	reports = append(reports, &advisor.Report{App: "hpcg", Budget: 256 * units.MB})
	_, preds, err := RankPlacements(profRun.Trace, reports, m)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		want, err := Replay(profRun.Trace, rep, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(preds[i], want) {
			t.Errorf("report %d: RankPlacements %+v, Replay %+v", i, preds[i], want)
		}
	}
}
