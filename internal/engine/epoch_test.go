package engine

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/callstack"
	"repro/internal/mem"
	"repro/internal/pebs"
	"repro/internal/units"
)

// epochProbe is a minimal EpochPolicy: everything on DDR, epochs and
// samples recorded, an optional one-shot migration of the first
// allocation issued at the first boundary.
type epochProbe struct {
	mk   *alloc.Memkind
	spec EpochSpec

	firstAddr uint64
	firstSize int64
	migrate   bool
	migrated  bool

	infos []EpochInfo
}

func (p *epochProbe) Name() string { return "probe" }

func (p *epochProbe) Malloc(_ callstack.Stack, size int64) (uint64, error) {
	addr, _, err := p.mk.MallocFallback(alloc.KindDefault, size)
	if err == nil && p.firstAddr == 0 {
		p.firstAddr, p.firstSize = addr, size
	}
	return addr, err
}

func (p *epochProbe) Realloc(_ callstack.Stack, addr uint64, size int64) (uint64, error) {
	na, _, err := p.mk.ReallocFallback(addr, size)
	return na, err
}

func (p *epochProbe) Free(addr uint64) error       { return p.mk.Free(addr) }
func (p *epochProbe) OverheadCycles() units.Cycles { return 0 }
func (p *epochProbe) EpochSpec() EpochSpec         { return p.spec }

func (p *epochProbe) EpochEnd(info EpochInfo) []Migration {
	p.infos = append(p.infos, info)
	if p.migrate && !p.migrated && p.firstAddr != 0 {
		p.migrated = true
		return []Migration{{
			Addr: p.firstAddr, Size: p.firstSize,
			From: mem.TierDDR, To: mem.TierMCDRAM,
		}}
	}
	return nil
}

func probeFactory(pp **epochProbe, spec EpochSpec, migrate bool) PolicyFactory {
	return func(mk *alloc.Memkind, _ *callstack.Program) (Policy, error) {
		p := &epochProbe{mk: mk, spec: spec, migrate: migrate}
		*pp = p
		return p, nil
	}
}

func TestEpochPerIteration(t *testing.T) {
	var p *epochProbe
	w := testWorkload()
	res, err := Run(w, Config{
		Machine: testMachine(), Seed: 3,
		MakePolicy: probeFactory(&p, EpochSpec{EveryIterations: 1, SamplePeriod: 199}, false),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != int64(w.Iterations) {
		t.Fatalf("epochs = %d, want %d (one per iteration)", res.Epochs, w.Iterations)
	}
	if len(p.infos) != w.Iterations {
		t.Fatalf("policy saw %d epochs", len(p.infos))
	}
	var samples int64
	for i, info := range p.infos {
		if info.Index != i {
			t.Errorf("epoch %d has index %d", i, info.Index)
		}
		if info.Refs == 0 {
			t.Errorf("epoch %d observed no refs", i)
		}
		samples += int64(len(info.Samples))
	}
	if samples == 0 {
		t.Fatal("epoch monitor emitted no samples")
	}
	if res.MonitorOverhead == 0 {
		t.Fatal("epoch sampling cost not charged")
	}
	if res.Trace != nil {
		t.Fatal("epoch monitoring must not produce a trace")
	}
}

func TestEpochByRefs(t *testing.T) {
	var p *epochProbe
	w := testWorkload()
	// Both phases issue at least 5k refs (65k and 6k), so a 5k-ref
	// bound ticks at every phase boundary: two epochs per iteration.
	res, err := Run(w, Config{
		Machine: testMachine(), Seed: 3,
		MakePolicy: probeFactory(&p, EpochSpec{EveryRefs: 5000, SamplePeriod: 199}, false),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != int64(2*w.Iterations) {
		t.Fatalf("refs-based epochs = %d, want %d (one per phase)", res.Epochs, 2*w.Iterations)
	}
}

func TestEpochDefaultsToOneIteration(t *testing.T) {
	var p *epochProbe
	w := testWorkload()
	res, err := Run(w, Config{
		Machine: testMachine(), Seed: 3,
		MakePolicy: probeFactory(&p, EpochSpec{}, false),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != int64(w.Iterations) {
		t.Fatalf("zero spec: epochs = %d, want %d", res.Epochs, w.Iterations)
	}
}

func TestMigrationChargedAndApplied(t *testing.T) {
	w := testWorkload()
	m := testMachine()
	var quiet, moving *epochProbe
	base, err := Run(w, Config{
		Machine: m, Seed: 3,
		MakePolicy: probeFactory(&quiet, EpochSpec{EveryIterations: 1}, false),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, Config{
		Machine: m, Seed: 3,
		MakePolicy: probeFactory(&moving, EpochSpec{EveryIterations: 1}, true),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 1 || res.MigratedBytes != moving.firstSize {
		t.Fatalf("migrations = %d / %d bytes, want 1 / %d", res.Migrations, res.MigratedBytes, moving.firstSize)
	}
	want := mem.MigrationTime(&m, m.Cores, moving.firstSize, mem.TierDDR, mem.TierMCDRAM)
	if res.MigrationCycles != want {
		t.Fatalf("migration cycles = %d, want %d", res.MigrationCycles, want)
	}
	// The first allocation is the hot 8 MB object: serving its stream
	// from MCDRAM after the first boundary must shrink the run's
	// execution time net of the charged move cost. (The toy run is so
	// short that the move itself dominates wall time — exactly the
	// regime the online placer's gate exists to detect.)
	if res.Cycles-res.MigrationCycles >= base.Cycles {
		t.Fatalf("rebinding had no effect: %d cycles net of migration vs %d unmigrated",
			res.Cycles-res.MigrationCycles, base.Cycles)
	}
	if base.Migrations != 0 || base.MigrationCycles != 0 {
		t.Fatalf("quiet run reported migrations: %+v", base)
	}
}

func TestNonEpochPolicyUnaffected(t *testing.T) {
	w := testWorkload()
	res, err := Run(w, Config{
		Machine: testMachine(), Seed: 3,
		MakePolicy: func(mk *alloc.Memkind, prog *callstack.Program) (Policy, error) {
			return &manualPolicy{mk: mk, prog: prog}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 0 || res.Migrations != 0 {
		t.Fatalf("plain policy run reports epoch state: %d epochs, %d migrations", res.Epochs, res.Migrations)
	}
}

func TestEpochSamplerIndependentOfTraceMonitor(t *testing.T) {
	var p *epochProbe
	w := testWorkload()
	res, err := Run(w, Config{
		Machine: testMachine(), Seed: 3,
		MakePolicy: probeFactory(&p, EpochSpec{EveryIterations: 1, SamplePeriod: 500}, false),
		Monitor:    &MonitorConfig{SamplePeriod: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Samples == 0 {
		t.Fatal("trace monitor lost its samples")
	}
	var epochSamples int64
	for _, info := range p.infos {
		epochSamples += int64(len(info.Samples))
	}
	if epochSamples == 0 {
		t.Fatal("epoch monitor starved by the trace monitor")
	}
	// Different periods must decimate independently: 5x the period,
	// roughly a fifth of the samples.
	if epochSamples >= res.Samples {
		t.Fatalf("epoch samples %d not decimated vs trace samples %d", epochSamples, res.Samples)
	}
}

func TestRotationSchedule(t *testing.T) {
	ph := Phase{Routine: "r", Rotation: Rotation{Every: 2, Count: 3, Slot: 1}}
	want := map[int]bool{2: true, 3: true, 8: true, 9: true}
	for it := 0; it < 12; it++ {
		if ph.ActiveOn(it) != want[it] {
			t.Errorf("ActiveOn(%d) = %v, want %v", it, ph.ActiveOn(it), want[it])
		}
	}
	always := Phase{Routine: "a"}
	for it := 0; it < 5; it++ {
		if !always.ActiveOn(it) {
			t.Errorf("unrotated phase inactive on %d", it)
		}
	}
}

func TestRotationValidation(t *testing.T) {
	w := testWorkload()
	w.IterPhases[0].Rotation = Rotation{Count: 3, Slot: 3}
	if err := w.Validate(); err == nil {
		t.Fatal("out-of-range rotation slot accepted")
	}
	w.IterPhases[0].Rotation = Rotation{Count: 2, Slot: 0, Every: -1}
	if err := w.Validate(); err == nil {
		t.Fatal("negative rotation period accepted")
	}
	w.IterPhases[0].Rotation = Rotation{Count: 2, Slot: 1, Every: 2}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRotatedPhaseSkipsExecution(t *testing.T) {
	w := testWorkload()
	// "update" runs only on odd iterations.
	w.IterPhases[1].Rotation = Rotation{Every: 1, Count: 2, Slot: 1}
	res, err := Run(w, Config{
		Machine: testMachine(), Seed: 3, MakePolicy: ddrFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ps := range res.PhaseStats {
		counts[ps.Routine]++
	}
	if counts["compute"] != w.Iterations {
		t.Errorf("compute ran %d times, want %d", counts["compute"], w.Iterations)
	}
	if counts["update"] != w.Iterations/2 {
		t.Errorf("update ran %d times, want %d", counts["update"], w.Iterations/2)
	}
}

func TestEpochSamplePeriodDefault(t *testing.T) {
	s := pebs.NewSampler(0)
	if s.Period() != pebs.DefaultPeriod {
		t.Fatalf("sampler default period = %d", s.Period())
	}
}

// floorMachine is a three-tier node whose default DDR is too small for
// the toy workload, so the hot object spills to the NVM floor and
// floor-served traffic accumulates from the first iteration.
func floorMachine() mem.Machine {
	m := testMachine()
	for i := range m.Tiers {
		if m.Tiers[i].ID == mem.TierDDR {
			m.Tiers[i].Capacity = 8 * units.MB
		}
	}
	m.Tiers = append(m.Tiers, mem.TierSpec{
		ID: mem.TierNVM, Name: "NVM",
		Capacity:         1 * units.GB,
		LatencyCycles:    420,
		PeakBandwidth:    38e9,
		PerCoreBandwidth: 2.2e9,
		RelativePerf:     0.4,
	})
	return m
}

func TestEpochInfoCarriesDemandTraffic(t *testing.T) {
	var p *epochProbe
	w := testWorkload()
	_, err := Run(w, Config{
		Machine: testMachine(), Seed: 3,
		MakePolicy: probeFactory(&p, EpochSpec{EveryIterations: 1, SamplePeriod: 199}, false),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, info := range p.infos {
		if info.Duration <= 0 {
			t.Fatalf("epoch %d has duration %d", i, info.Duration)
		}
		if info.TierBytes[mem.TierDDR] == 0 {
			t.Fatalf("epoch %d observed no DDR demand: %v", i, info.TierBytes)
		}
	}
}

// TestEpochFloorBytesTrigger: with the iteration bound effectively off,
// the floor-volume trigger alone must close epochs as NVM-served
// traffic accumulates — and must never fire on a machine without a
// floor tier.
func TestEpochFloorBytesTrigger(t *testing.T) {
	var p *epochProbe
	w := testWorkload()
	res, err := Run(w, Config{
		Machine: floorMachine(), Seed: 3,
		MakePolicy: probeFactory(&p, EpochSpec{EveryIterations: 1000, EveryFloorBytes: 512 * units.KB}, false),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 0 {
		t.Fatal("floor trigger never fired despite NVM spill")
	}
	for i, info := range p.infos {
		if info.TierBytes[mem.TierNVM] < 512*units.KB {
			t.Fatalf("epoch %d closed below the floor threshold: %v", i, info.TierBytes)
		}
	}

	var q *epochProbe
	res2, err := Run(w, Config{
		Machine: testMachine(), Seed: 3,
		MakePolicy: probeFactory(&q, EpochSpec{EveryIterations: 1000, EveryFloorBytes: 512 * units.KB}, false),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Epochs != 0 {
		t.Fatalf("floor trigger fired %d times on a floorless machine", res2.Epochs)
	}
}

// TestMigrationChargedWithContention: on a machine declaring a shared
// controller between the migration's endpoints and the application's
// demand tier, the engine charges the contended price — strictly more
// than the idle MigrationTime of the same move.
func TestMigrationChargedWithContention(t *testing.T) {
	w := testWorkload()
	m := mem.WithSharedControllers(testMachine(), 1, mem.TierDDR, mem.TierMCDRAM)
	var moving *epochProbe
	res, err := Run(w, Config{
		Machine: m, Seed: 3,
		MakePolicy: probeFactory(&moving, EpochSpec{EveryIterations: 1}, true),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 1 {
		t.Fatalf("migrations = %d", res.Migrations)
	}
	idle := mem.MigrationTime(&m, m.Cores, moving.firstSize, mem.TierDDR, mem.TierMCDRAM)
	if res.MigrationCycles <= idle {
		t.Fatalf("contended charge %d not above idle %d", res.MigrationCycles, idle)
	}
	want := mem.MigrationTimeUnder(&m, m.Cores, moving.firstSize,
		mem.TierDDR, mem.TierMCDRAM, moving.infos[0].TierBytes, moving.infos[0].Duration)
	if res.MigrationCycles != want {
		t.Fatalf("charge %d != contended model %d", res.MigrationCycles, want)
	}
}
