package hybridmem

import (
	"bytes"
	"testing"
)

// TestPipelineSeedTranslation pins the property the whole framework
// rests on: the profiling run and the production run execute under
// different ASLR layouts (Pipeline offsets the production seed by
// 0x9e37), yet the advisor report — recorded against the profiling
// layout — still matches the production run's call stacks after
// translation, so the same bytes land in fast memory either way.
func TestPipelineSeedTranslation(t *testing.T) {
	w, err := WorkloadByName("minife")
	if err != nil {
		t.Fatal(err)
	}
	m := MachineFor(w)
	const seed = 9
	pr, err := Pipeline(w, PipelineConfig{
		Machine: m, Seed: seed, Budget: 128 * MB, Strategy: StrategyMisses(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Run.HBWHWM == 0 {
		t.Fatal("production run placed nothing despite a non-empty report")
	}
	if pr.Run.PlacementFailures != 0 {
		t.Fatalf("production run had %d placement failures", pr.Run.PlacementFailures)
	}
	// Re-execute under the PROFILING layout: if translation really
	// bridges ASLR, the placement must be byte-identical.
	same, err := Execute(w, pr.Report, InterposeOptions{}, ExecuteConfig{
		Machine: m, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if same.HBWHWM != pr.Run.HBWHWM {
		t.Fatalf("placement differs across ASLR layouts: profiling-layout HWM %d, production-layout HWM %d",
			same.HBWHWM, pr.Run.HBWHWM)
	}
	if same.FOM <= pr.ProfilingRun.FOM {
		t.Fatalf("placed run (%v) not faster than monitored DDR run (%v)", same.FOM, pr.ProfilingRun.FOM)
	}
}

// TestRunBaselineAll drives every comparison placement end to end and
// checks the property that defines each one.
func TestRunBaselineAll(t *testing.T) {
	w, err := WorkloadByName("cgpop")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ExecuteConfig{Machine: MachineFor(w), Seed: 13}

	ddr, err := RunBaseline(w, BaselineDDR, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ddr.HBWHWM != 0 {
		t.Errorf("ddr: fast-memory HWM = %d, want 0", ddr.HBWHWM)
	}
	if ddr.FOM <= 0 {
		t.Errorf("ddr: FOM = %v", ddr.FOM)
	}

	numactl, err := RunBaseline(w, BaselineNumactl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if numactl.HBWHWM == 0 {
		t.Error("numactl: nothing landed in MCDRAM")
	}

	autohbw, err := RunBaseline(w, BaselineAutoHBW, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if autohbw.HBWHWM == 0 {
		t.Error("autohbw: no threshold-passing allocation promoted")
	}

	cache, err := RunBaseline(w, BaselineCacheMode, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cache.MCDRAMCacheHits+cache.MCDRAMCacheMisses == 0 {
		t.Error("cache mode: MCDRAM cache never exercised")
	}
	if cache.HBWHWM != 0 {
		t.Errorf("cache mode: software placed %d bytes, placement should be hardware's", cache.HBWHWM)
	}

	online, err := RunOnline(w, OnlineConfig{Machine: cfg.Machine, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if online.Policy != "online" {
		t.Errorf("online: policy = %q", online.Policy)
	}
	if online.Epochs == 0 {
		t.Error("online: no epoch boundaries reached")
	}

	if _, err := RunBaseline(w, Baseline(99), cfg); err == nil {
		t.Fatal("unknown baseline accepted")
	}
}

// TestRunOnlineFacade checks the root-package plumbing into the online
// subsystem: budget respected, epochs ticking, and adaptation visible
// on the phase-shifting adversary.
func TestRunOnlineFacade(t *testing.T) {
	w, err := WorkloadByName("phaseshift")
	if err != nil {
		t.Fatal(err)
	}
	m := MachineFor(w)
	res, err := RunOnline(w, OnlineConfig{Machine: m, Seed: 7, Budget: 16 * MB})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != int64(w.Iterations) {
		t.Errorf("epochs = %d, want one per iteration (%d)", res.Epochs, w.Iterations)
	}
	if res.Migrations == 0 || res.MigratedBytes == 0 {
		t.Error("online run did not migrate on the phase-shifting workload")
	}
	if res.MigrationCycles == 0 {
		t.Error("migrations were free — move traffic not charged")
	}
	// Mixed triggers: a refs bound alongside the iteration bound used
	// to overrun the derived TotalEpochs and drive the gate's horizon
	// negative, freezing the placer mid-run; it must keep adapting.
	mixed, err := RunOnline(w, OnlineConfig{
		Machine: m, Seed: 7, Budget: 16 * MB,
		EveryIterations: 4, EveryRefs: 700000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Migrations == 0 {
		t.Error("mixed epoch triggers froze the placer (negative horizon regression)")
	}
	// A machine without an MCDRAM tier cannot host the placer.
	bad := m
	bad.Tiers = bad.Tiers[:1]
	if _, err := RunOnline(w, OnlineConfig{Machine: bad, Seed: 7}); err == nil {
		t.Error("machine without MCDRAM accepted")
	}
}

// TestPipelineTimeAwareHierarchy checks that Pipeline honours a
// memory hierarchy under time-aware advising: its report is the one
// AdviseTimeAware packs over that hierarchy from the pipeline's own
// profile.
func TestPipelineTimeAwareHierarchy(t *testing.T) {
	w, err := WorkloadByName("lulesh")
	if err != nil {
		t.Fatal(err)
	}
	m := MachineFor(w)
	mc := MemoryConfigFor(m, 128*MB)
	pr, err := Pipeline(w, PipelineConfig{
		Machine: m, Seed: 21, Memory: &mc, Strategy: StrategyDensity, TimeAware: true, RefScale: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := AdviseTimeAware(pr.Profile, mc, StrategyDensity)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Entries) == 0 {
		t.Fatal("time-aware advise selected nothing; the comparison is vacuous")
	}
	var got, exp bytes.Buffer
	if err := pr.Report.Write(&got); err != nil {
		t.Fatal(err)
	}
	if err := want.Write(&exp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), exp.Bytes()) {
		t.Errorf("pipeline report differs from AdviseTimeAware over the same hierarchy:\n--- pipeline ---\n%s\n--- advise ---\n%s", got.String(), exp.String())
	}
}
