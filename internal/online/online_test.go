package online_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/advisor"
	"repro/internal/alloc"
	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/callstack"
	"repro/internal/engine"
	"repro/internal/interpose"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/paramedir"
	"repro/internal/units"
)

const testPeriod = 1499

// runStatic drives the paper's offline pipeline — profile on DDR,
// analyze, advise Misses(0) for the budget, execute under
// auto-hbwmalloc — and returns the production run.
func runStatic(t *testing.T, w *engine.Workload, budget int64, seed uint64) *engine.Result {
	t.Helper()
	prof, err := engine.Run(w, engine.Config{
		Machine: apps.MachineFor(w), Seed: seed, MakePolicy: baseline.DDR(),
		Monitor: &engine.MonitorConfig{SamplePeriod: testPeriod, MinAllocSize: 4 * units.KB},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := paramedir.Analyze(prof.Trace)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := advisor.Advise(context.Background(), pr.App, advisor.FromProfile(pr), advisor.TwoTier(budget), advisor.MissesStrategy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(w, engine.Config{
		Machine: apps.MachineFor(w), Seed: seed + 0x9e37,
		MakePolicy: interpose.Factory(rep, interpose.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runOnline executes w under the online adaptive placer, returning the
// run result and the policy for its live state. The production seed
// offset matches runStatic's, so both face the same ASLR layout.
func runOnline(t *testing.T, w *engine.Workload, opts online.Options, seed uint64) (*engine.Result, *online.Policy) {
	t.Helper()
	m := apps.MachineFor(w)
	opts.Machine = m
	if opts.SamplePeriod == 0 {
		opts.SamplePeriod = testPeriod
	}
	if opts.TotalEpochs == 0 {
		every := opts.EveryIterations
		if every <= 0 {
			every = 1
		}
		opts.TotalEpochs = w.Iterations / every
	}
	var pol *online.Policy
	res, err := engine.Run(w, engine.Config{
		Machine: m, Seed: seed + 0x9e37,
		MakePolicy: func(mk *alloc.Memkind, prog *callstack.Program) (engine.Policy, error) {
			p, err := online.New(mk, prog, opts)
			pol = p
			return p, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, pol
}

// TestOnlineBeatsStaticOnPhaseShift is the subsystem's reason to
// exist: when the hot set rotates, epoch-driven re-advising with live
// migration must outperform the best one-shot placement at the same
// budget.
func TestOnlineBeatsStaticOnPhaseShift(t *testing.T) {
	w := apps.PhaseShift()
	// One rotating group exactly: a one-shot placement can serve at
	// most one of the three slots from fast memory, however the ties
	// break; the online placer serves nearly all of them.
	const budget = 16 * units.MB
	static := runStatic(t, apps.PhaseShift(), budget, 7)
	res, _ := runOnline(t, w, online.Options{Budget: budget}, 7)

	if res.Migrations == 0 {
		t.Fatal("online run never migrated — it is not adapting")
	}
	moveEpochs := res.Metrics["online_move_epochs"]
	if moveEpochs < 2 {
		t.Fatalf("move epochs = %d, want re-placements across slot switches (metrics: %v)", moveEpochs, res.Metrics)
	}
	if res.FOM <= static.FOM {
		t.Fatalf("online FOM %.3f did not beat static misses(0) FOM %.3f (migrated %d MB in %d epochs)",
			res.FOM, static.FOM, res.MigratedBytes/units.MB, moveEpochs)
	}
}

// TestHysteresisKeepsStableWorkloadQuiet: on HPCG the hot set never
// moves and the live working set is large relative to the gain a
// short scaled run can harvest — the cost-benefit gate must keep
// migration traffic at zero rather than churn data mid-run.
func TestHysteresisKeepsStableWorkloadQuiet(t *testing.T) {
	w, err := apps.ByName("hpcg")
	if err != nil {
		t.Fatal(err)
	}
	res, _ := runOnline(t, w, online.Options{Budget: 128 * units.MB}, 7)
	if res.Epochs == 0 || res.Metrics["online_samples_attributed"] == 0 {
		t.Fatalf("monitor never engaged: %d epochs, metrics %v", res.Epochs, res.Metrics)
	}
	if res.Migrations != 0 || res.MigratedBytes != 0 {
		t.Fatalf("stable workload migrated %d regions / %d bytes, want zero (metrics: %v)",
			res.Migrations, res.MigratedBytes, res.Metrics)
	}
	if res.Metrics["online_gate_rejected"] == 0 {
		t.Fatalf("gate never evaluated a plan — quiet run is vacuous: %v", res.Metrics)
	}
}

// TestGateBlocksEverythingAtInfiniteHysteresis: the hysteresis knob
// must be able to pin the placer down entirely.
func TestGateBlocksEverythingAtInfiniteHysteresis(t *testing.T) {
	res, _ := runOnline(t, apps.PhaseShift(), online.Options{
		Budget: 32 * units.MB, Hysteresis: 1e12,
	}, 7)
	if res.Migrations != 0 {
		t.Fatalf("migrated %d regions despite infinite hysteresis", res.Migrations)
	}
	if res.Metrics["online_gate_rejected"] == 0 {
		t.Fatal("gate never rejected — plans were not even considered")
	}
}

// TestGateDefaultMargin pins the gate's default hysteresis by a move
// near it: on phaseshift with 0.7M-reference epochs, epoch 3's plan
// predicts a gain over the horizon of about 1.74 times its move cost.
// The default margin (1.5) lets it through; a margin just above its
// ratio refuses it, so raising the default past 1.74 fails here.
func TestGateDefaultMargin(t *testing.T) {
	const epoch, above = 3, 1.75
	gate := func(hysteresis float64) obs.GateEvent {
		t.Helper()
		var trace bytes.Buffer
		runOnline(t, apps.PhaseShift(), online.Options{
			Budget: 16 * units.MB, EveryRefs: 700_000, Hysteresis: hysteresis, Obs: obs.New(&trace),
		}, 7)
		for _, line := range strings.Split(trace.String(), "\n") {
			var ev obs.GateEvent
			if strings.Contains(line, `"ev":"gate"`) && json.Unmarshal([]byte(line), &ev) == nil && ev.Epoch == epoch {
				return ev
			}
		}
		t.Fatalf("hysteresis %g: no gate decision at epoch %d", hysteresis, epoch)
		return obs.GateEvent{}
	}
	def := gate(0)
	ratio := def.NetGain * def.Horizon / float64(def.MoveCost)
	if def.Hysteresis != 1.5 || def.Decision != obs.DecisionAccept {
		t.Fatalf("default gate: hysteresis %g, decision %s on a plan with gain/cost %.4f; want 1.5, %s",
			def.Hysteresis, def.Decision, ratio, obs.DecisionAccept)
	}
	if ratio <= 1.5 || ratio >= above {
		t.Fatalf("epoch %d plan's gain/cost is %.4f, no longer between the default margin and %g", epoch, ratio, above)
	}
	if ev := gate(above); ev.Decision != obs.DecisionReject {
		t.Fatalf("hysteresis %g: epoch %d plan with gain/cost %.4f was %s, want %s", above, epoch, ratio, ev.Decision, obs.DecisionReject)
	}
}

// TestOnlineRespectsBudget: bound fast bytes never exceed the budget.
func TestOnlineRespectsBudget(t *testing.T) {
	const budget = 32 * units.MB
	res, pol := runOnline(t, apps.PhaseShift(), online.Options{Budget: budget}, 11)
	if pol.FastUsed() > budget {
		t.Fatalf("fast usage %d exceeds budget %d", pol.FastUsed(), budget)
	}
	if res.Epochs == 0 {
		t.Fatal("engine reported no epochs")
	}
}

func TestAggregatorDecayTracksPhaseChange(t *testing.T) {
	a := online.NewAggregator(0.5)
	// Three epochs of a hot site, then it goes cold while another
	// heats up: the newcomer must overtake within one epoch.
	for i := 0; i < 3; i++ {
		a.Add("old", 100)
		a.EndEpoch()
	}
	oldPeak := a.Score("old")
	a.Add("new", 100)
	if a.Score("new") <= a.Score("old") {
		t.Fatalf("fresh site (%.1f) did not overtake decayed one (%.1f)", a.Score("new"), a.Score("old"))
	}
	a.EndEpoch()
	for i := 0; i < 20; i++ {
		a.EndEpoch()
	}
	if a.Score("old") >= oldPeak/100 {
		t.Fatalf("cold site score %.4f did not decay from %.1f", a.Score("old"), oldPeak)
	}
}

func TestAggregatorBadDecayFallsBack(t *testing.T) {
	if d := online.NewAggregator(-3).Decay(); d != 0.35 {
		t.Fatalf("decay = %v, want 0.35 fallback", d)
	}
	if d := online.NewAggregator(0.9).Decay(); d != 0.9 {
		t.Fatalf("decay = %v, want 0.9", d)
	}
}

// ntierShift builds a DDR+MCDRAM+NVM machine whose DDR tier is too
// small to hold both object groups, plus a workload whose hot set
// flips between the groups mid-run. The only good answer at any
// moment is: hot group on MCDRAM, one cold object on DDR, the other
// BELOW DDR on the NVM floor — so every rotation exercises demotion
// past the default tier.
func ntierShift() (mem.Machine, *engine.Workload) {
	m := mem.KNLOptane()
	m.Cores = 8
	m.Tiers = append([]mem.TierSpec(nil), m.Tiers...)
	for i := range m.Tiers {
		switch m.Tiers[i].ID {
		case mem.TierMCDRAM:
			m.Tiers[i].Capacity = 16 * units.MB
		case mem.TierDDR:
			m.Tiers[i].Capacity = 12 * units.MB
		}
	}
	const slotIters = 4
	w := &engine.Workload{
		Name: "ntiershift", Program: "ntiershift", Language: "C", Parallelism: "MPI",
		FOMName: "sweeps/s", FOMUnit: "sweeps/s", WorkPerIteration: 1,
		Iterations: 3 * slotIters, Ranks: 1, Threads: 8,
		AllocStatements: "4/0/4/0/0/0/0",
	}
	for _, n := range []string{"a0", "a1", "b0", "b1"} {
		w.Objects = append(w.Objects, engine.ObjectSpec{
			Name: n, Class: engine.Dynamic, Size: 8 * units.MB,
			SitePath: []string{"main", "init", "alloc_" + n},
		})
	}
	touch := func(names ...string) []engine.Touch {
		out := make([]engine.Touch, 0, len(names))
		for _, n := range names {
			out = append(out, engine.Touch{Object: n, Pattern: engine.Sequential, Refs: 400_000})
		}
		return out
	}
	w.IterPhases = []engine.Phase{
		{Routine: "sweep_a", Instructions: 50_000, Touches: touch("a0", "a1"),
			Rotation: engine.Rotation{Every: slotIters, Count: 2, Slot: 0}},
		{Routine: "sweep_b", Instructions: 50_000, Touches: touch("b0", "b1"),
			Rotation: engine.Rotation{Every: slotIters, Count: 2, Slot: 1}},
	}
	return m, w
}

// TestOnlineDemotesBelowDDROnNTierMachine is the N-tier placer's
// reason to exist: when the hot set moves on a machine with an NVM
// floor, the waterfall re-solve must not only promote the new hot
// group but demote the cooling one PAST the default tier, because DDR
// cannot hold everything that falls out of MCDRAM.
func TestOnlineDemotesBelowDDROnNTierMachine(t *testing.T) {
	m, w := ntierShift()
	var pol *online.Policy
	res, err := engine.Run(w, engine.Config{
		Machine: m, Seed: 5,
		MakePolicy: func(mk *alloc.Memkind, prog *callstack.Program) (engine.Policy, error) {
			p, err := online.New(mk, prog, online.Options{
				Machine: m, Budget: 16 * units.MB,
				SamplePeriod: testPeriod, Hysteresis: 0.8,
				TotalEpochs: w.Iterations,
			})
			pol = p
			return p, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Metrics
	if res.Migrations == 0 || st["online_move_epochs"] == 0 {
		t.Fatalf("N-tier online run never migrated: %v", st)
	}
	if st["online_demotions"] == 0 || st["online_bytes_demoted"] == 0 {
		t.Fatalf("rotation produced no demotions: %v", st)
	}
	// The cooling group cannot fit DDR whole: the solver must have
	// banished some site to the NVM floor, and bytes must live there.
	nvmAssigned := false
	for _, tier := range pol.Assignments() {
		if tier == mem.TierNVM {
			nvmAssigned = true
		}
	}
	if !nvmAssigned {
		t.Fatalf("no site assigned to the NVM floor after rotation (assignments=%v, metrics=%v)",
			pol.Assignments(), st)
	}
	// (Live-byte counters are zero here — the engine frees every
	// program-lifetime object at run end — so the floor's occupancy
	// shows in the heap high-water mark instead.)
	if res.TierHWMs[mem.TierNVM] == 0 {
		t.Fatalf("NVM heap never hosted data (HWMs=%v, metrics=%v)", res.TierHWMs, st)
	}
	if pol.FastUsed() > 16*units.MB {
		t.Fatalf("fast usage %d exceeds budget", pol.FastUsed())
	}
}

// TestContentionGateRefusesMigrationUnderSharedController is the
// bandwidth-contention acceptance scenario: the same phase-shifting
// run, on the same machine numbers, migrates freely when the tiers
// have dedicated controllers but is pinned down when DDR and MCDRAM
// share one — the plan that is profitable at idle bandwidth becomes
// unprofitable priced against the epoch's concurrent traffic.
func TestContentionGateRefusesMigrationUnderSharedController(t *testing.T) {
	w := apps.PhaseShift()
	const budget = 16 * units.MB

	plain, _ := runOnline(t, w, online.Options{Budget: budget}, 7)
	if plain.Migrations == 0 {
		t.Fatal("baseline online run never migrated — contention comparison is vacuous")
	}

	shared := apps.MachineFor(w)
	shared = mem.WithSharedControllers(shared, 1, mem.TierDDR, mem.TierMCDRAM)
	res, err := engine.Run(w, engine.Config{
		Machine: shared, Seed: 7 + 0x9e37,
		MakePolicy: online.Factory(online.Options{
			Machine: shared, Budget: budget,
			SamplePeriod: testPeriod, TotalEpochs: w.Iterations,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MigratedBytes >= plain.MigratedBytes {
		t.Fatalf("shared-controller run migrated %d bytes, plain run %d — contention did not bite",
			res.MigratedBytes, plain.MigratedBytes)
	}
	if res.Metrics["online_gate_rejected"] <= plain.Metrics["online_gate_rejected"] {
		t.Fatalf("shared gate rejected %d plans vs plain %d — pricing unchanged",
			res.Metrics["online_gate_rejected"], plain.Metrics["online_gate_rejected"])
	}
}

// TestFloorBytesTriggerDrivesRescue: with the iteration cadence
// effectively off, the NVM-miss-volume trigger alone must wake the
// placer — and the epochs it closes carry enough floor traffic to act.
func TestFloorBytesTriggerDrivesRescue(t *testing.T) {
	m, w := ntierShift()
	res, err := engine.Run(w, engine.Config{
		Machine: m, Seed: 5,
		MakePolicy: online.Factory(online.Options{
			Machine: m, Budget: 16 * units.MB,
			EveryIterations: 1000, EveryFloorBytes: 4 * units.MB,
			SamplePeriod: testPeriod, Hysteresis: 0.8,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 0 {
		t.Fatal("floor trigger never closed an epoch despite NVM spill")
	}
	if res.Migrations == 0 || res.Metrics["online_move_epochs"] == 0 {
		t.Fatalf("floor-triggered epochs never rescued data: %v", res.Metrics)
	}
}

// panicStrategy is caller-supplied solver code that crashes.
type panicStrategy struct{}

func (panicStrategy) Name() string                                           { return "panics" }
func (panicStrategy) Select(objs []advisor.Object, _ int64) []advisor.Object { panic("solver bug") }

// overpackStrategy violates the Strategy contract by selecting every
// candidate regardless of budget; the advisor's cascade refuses it.
type overpackStrategy struct{}

func (overpackStrategy) Name() string { return "overpack" }
func (overpackStrategy) Select(objs []advisor.Object, _ int64) []advisor.Object {
	return append([]advisor.Object(nil), objs...)
}

// TestFailedSolveKeepsPlacement: an epoch re-solve that panics or is
// refused must not stop the run. The placer keeps its placement,
// counts the failure, explains it in the trace and migrates nothing.
func TestFailedSolveKeepsPlacement(t *testing.T) {
	for _, tc := range []struct {
		strat  advisor.Strategy
		reason string
		detail string // what the event's detail must mention
	}{
		{panicStrategy{}, "epoch-solve-panic", `"detail":"solver bug"`},
		// The budget is below one hot group, so every selection overpacks.
		{overpackStrategy{}, "epoch-solve-error", "overpacked"},
	} {
		t.Run(tc.strat.Name(), func(t *testing.T) {
			m, w := ntierShift()
			var trace bytes.Buffer
			var pol *online.Policy
			res, err := engine.Run(w, engine.Config{
				Machine: m, Seed: 5,
				MakePolicy: func(mk *alloc.Memkind, prog *callstack.Program) (engine.Policy, error) {
					p, err := online.New(mk, prog, online.Options{
						Machine: m, Budget: 8 * units.MB, Strategy: tc.strat,
						SamplePeriod: testPeriod, TotalEpochs: w.Iterations,
						Obs: obs.New(&trace),
					})
					pol = p
					return p, err
				},
			})
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			panics := res.Metrics["solver_panics"]
			if panics == 0 {
				t.Fatal("no failed solve counted in solver_panics")
			}
			if res.Migrations != 0 || res.MigratedBytes != 0 || len(pol.Assignments()) != 0 {
				t.Fatalf("failed solves moved data: %d migrations, %d bytes, assignments %v",
					res.Migrations, res.MigratedBytes, pol.Assignments())
			}
			want := `"ev":"degrade","strategy":"` + tc.strat.Name() + `","reason":"` + tc.reason + `","fallback":"keep-placement"`
			if got := strings.Count(trace.String(), want); int64(got) != panics {
				t.Fatalf("%d degrade events %s for %d failed solves", got, want, panics)
			}
			// Every degrade event keeps the reason the solve failed.
			for _, line := range strings.Split(trace.String(), "\n") {
				if strings.Contains(line, want) && !strings.Contains(line, tc.detail) {
					t.Fatalf("degrade event does not mention %s: %s", tc.detail, line)
				}
			}
		})
	}
}
