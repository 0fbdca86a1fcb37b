package engine

import (
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/callstack"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/units"
)

// testMachine shrinks the LLC so small test workloads still miss.
func testMachine() mem.Machine {
	m := mem.DefaultKNL()
	m.LLC.Size = 256 * units.KB
	m.LLC.L1Size = 8 * units.KB
	return m
}

// testWorkload: one hot 8 MB dynamic object streamed hard, one cold
// 4 MB dynamic object, a 2 MB static, a 1 MB stack object, and a 512 KB
// per-iteration scratch buffer.
func testWorkload() *Workload {
	return &Workload{
		Name: "toy", Program: "toy", Language: "C", Parallelism: "OpenMP",
		LinesOfCode: 100, Ranks: 1, Threads: 4,
		FOMName: "FOM", FOMUnit: "it/s", WorkPerIteration: 1,
		Iterations: 4,
		Objects: []ObjectSpec{
			{Name: "hot", Class: Dynamic, Size: 8 * units.MB, SitePath: []string{"main", "init", "allocHot"}},
			{Name: "cold", Class: Dynamic, Size: 4 * units.MB, SitePath: []string{"main", "init", "allocCold"}},
			{Name: "grid", Class: Static, Size: 2 * units.MB},
			{Name: "frame", Class: Stack, Size: units.MB},
			{Name: "scratch", Class: Dynamic, Lifetime: LifetimeIteration, Size: 512 * units.KB,
				SitePath: []string{"main", "loop", "allocScratch"}},
		},
		IterPhases: []Phase{
			{Routine: "compute", Instructions: 100000, Touches: []Touch{
				{Object: "hot", Pattern: Sequential, Refs: 60000},
				{Object: "scratch", Pattern: Sequential, Refs: 5000},
			}},
			{Routine: "update", Instructions: 50000, Touches: []Touch{
				{Object: "cold", Pattern: GatherRandom, Refs: 2000},
				{Object: "grid", Pattern: Strided, Refs: 3000, Stride: 512},
				{Object: "frame", Pattern: Sequential, Refs: 1000},
			}},
		},
		AllocStatements: "3/0/3/0/0/0/0",
	}
}

// manualPolicy places objects whose innermost site frame matches a
// substring into HBW — a miniature framework stand-in for tests.
type manualPolicy struct {
	mk    *alloc.Memkind
	prog  *callstack.Program
	match string
}

func (p *manualPolicy) Name() string { return "manual" }

func (p *manualPolicy) Malloc(stack callstack.Stack, size int64) (uint64, error) {
	key := string(p.prog.Table.Translate(stack))
	if p.match != "" && strings.Contains(key, p.match) {
		if a, err := p.mk.Malloc(alloc.KindHBW, size); err == nil {
			return a, nil
		}
	}
	return p.mk.Malloc(alloc.KindDefault, size)
}

func (p *manualPolicy) Realloc(_ callstack.Stack, addr uint64, size int64) (uint64, error) {
	na, _, err := p.mk.ReallocFallback(addr, size)
	return na, err
}

func (p *manualPolicy) Free(addr uint64) error       { return p.mk.Free(addr) }
func (p *manualPolicy) OverheadCycles() units.Cycles { return 0 }

func manualFactory(match string) PolicyFactory {
	return func(mk *alloc.Memkind, prog *callstack.Program) (Policy, error) {
		return &manualPolicy{mk: mk, prog: prog, match: match}, nil
	}
}

func ddrFactory() PolicyFactory { return manualFactory("") }

func TestWorkloadValidate(t *testing.T) {
	if err := testWorkload().Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	muts := []struct {
		name string
		mut  func(*Workload)
	}{
		{"no name", func(w *Workload) { w.Name = "" }},
		{"no iterations", func(w *Workload) { w.Iterations = 0 }},
		{"no work", func(w *Workload) { w.WorkPerIteration = 0 }},
		{"dup object", func(w *Workload) { w.Objects = append(w.Objects, w.Objects[0]) }},
		{"zero size", func(w *Workload) { w.Objects[0].Size = 0 }},
		{"dynamic no site", func(w *Workload) { w.Objects[0].SitePath = nil }},
		{"static iteration", func(w *Workload) { w.Objects[2].Lifetime = LifetimeIteration }},
		{"bad realloc", func(w *Workload) { w.Objects[0].ReallocTo = 5 }},
		{"unknown touch", func(w *Workload) { w.IterPhases[0].Touches[0].Object = "ghost" }},
		{"neg refs", func(w *Workload) { w.IterPhases[0].Touches[0].Refs = -1 }},
		{"bad hot frac", func(w *Workload) { w.IterPhases[0].Touches[0].HotFraction = 2 }},
		{"unnamed phase", func(w *Workload) { w.IterPhases[0].Routine = "" }},
	}
	for _, m := range muts {
		w := testWorkload()
		m.mut(w)
		if err := w.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad workload", m.name)
		}
	}
}

func TestFootprints(t *testing.T) {
	w := testWorkload()
	if got := w.DynamicFootprint(); got != (8+4)*units.MB+512*units.KB {
		t.Errorf("dynamic footprint = %d", got)
	}
	if got := w.StaticFootprint(); got != 2*units.MB {
		t.Errorf("static footprint = %d", got)
	}
	if got := w.StackFootprint(); got != units.MB {
		t.Errorf("stack footprint = %d", got)
	}
}

func TestRunDDRBasics(t *testing.T) {
	res, err := Run(testWorkload(), Config{
		Machine: testMachine(), Cores: 4, Seed: 1, MakePolicy: ddrFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Seconds <= 0 || res.FOM <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.LLCMisses == 0 {
		t.Fatal("no LLC misses — cost model has nothing to work with")
	}
	if res.HBWHWM != 0 {
		t.Fatalf("DDR policy used HBW heap: %d", res.HBWHWM)
	}
	// 2 program-lifetime + 4 iterations * 1 scratch = 6 allocations.
	if res.AllocCalls != 6 || res.FreeCalls != 6 {
		t.Fatalf("alloc/free calls = %d/%d, want 6/6", res.AllocCalls, res.FreeCalls)
	}
	// Phase stats: 4 iterations x 2 phases.
	if len(res.PhaseStats) != 8 {
		t.Fatalf("phase stats = %d, want 8", len(res.PhaseStats))
	}
	// Ground truth attribution: the hot object dominates misses.
	if res.ObjectMisses["hot"] <= res.ObjectMisses["cold"] {
		t.Fatalf("hot misses (%d) not > cold misses (%d)",
			res.ObjectMisses["hot"], res.ObjectMisses["cold"])
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := Config{Machine: testMachine(), Cores: 4, Seed: 7, MakePolicy: ddrFactory()}
	a, err := Run(testWorkload(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testWorkload(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.LLCMisses != b.LLCMisses {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d cycles/misses",
			a.Cycles, a.LLCMisses, b.Cycles, b.LLCMisses)
	}
}

func TestPlacingHotObjectImprovesFOM(t *testing.T) {
	m := testMachine()
	ddr, err := Run(testWorkload(), Config{Machine: m, Cores: 64, Seed: 1, MakePolicy: ddrFactory()})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(testWorkload(), Config{Machine: m, Cores: 64, Seed: 1, MakePolicy: manualFactory("allocHot")})
	if err != nil {
		t.Fatal(err)
	}
	if fast.FOM <= ddr.FOM {
		t.Fatalf("promoting hot object did not help: fast %.2f <= ddr %.2f", fast.FOM, ddr.FOM)
	}
	if fast.HBWHWM < 8*units.MB {
		t.Fatalf("hot object not on HBW heap: HWM = %d", fast.HBWHWM)
	}
}

func TestStaticsInFast(t *testing.T) {
	m := testMachine()
	res, err := Run(testWorkload(), Config{
		Machine: m, Cores: 64, Seed: 1, MakePolicy: ddrFactory(), StaticsInFast: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(testWorkload(), Config{Machine: m, Cores: 64, Seed: 1, MakePolicy: ddrFactory()})
	if err != nil {
		t.Fatal(err)
	}
	// Static + stack traffic moved to MCDRAM: strictly faster.
	if res.FOM <= base.FOM {
		t.Fatalf("statics-in-fast (%f) not faster than base (%f)", res.FOM, base.FOM)
	}
}

func TestMonitoredRunProducesTrace(t *testing.T) {
	res, err := Run(testWorkload(), Config{
		Machine: testMachine(), Cores: 4, Seed: 1, MakePolicy: ddrFactory(),
		Monitor: &MonitorConfig{SamplePeriod: 500, MinAllocSize: 4 * units.KB},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("monitored run produced no trace")
	}
	if n := tr.CountType(trace.EvAlloc); n != 6 {
		t.Fatalf("trace allocs = %d, want 6", n)
	}
	if n := tr.CountType(trace.EvFree); n != 6 {
		t.Fatalf("trace frees = %d, want 6", n)
	}
	// Only the static object is registered; the stack object ("frame")
	// is invisible to the tracer, as in the paper.
	if n := tr.CountType(trace.EvStatic); n != 1 {
		t.Fatalf("trace statics = %d, want 1 (grid only)", n)
	}
	if tr.CountType(trace.EvSample) == 0 {
		t.Fatal("no PEBS samples in trace")
	}
	if res.Samples != int64(tr.CountType(trace.EvSample)) {
		t.Fatal("sample count mismatch between result and trace")
	}
	if res.MonitorOverhead <= 0 {
		t.Fatal("monitoring charged no overhead")
	}
	// The toy workload samples very aggressively (period 500), so the
	// fraction is large here; realistic periods are checked in the
	// Table I integration test.
	if f := res.MonitorOverheadFraction(); f <= 0 || f >= 1 {
		t.Fatalf("overhead fraction = %v, want in (0,1)", f)
	}
	// Trace is time-sorted.
	for i := 1; i < len(tr.Records); i++ {
		if tr.Records[i].Time < tr.Records[i-1].Time {
			t.Fatal("trace not sorted by time")
		}
	}
	// Alloc events carry translated, ASLR-independent sites.
	for _, rec := range tr.Records {
		if rec.Type == trace.EvAlloc && !strings.Contains(string(rec.Site), "toy!") {
			t.Fatalf("alloc site not translated: %q", rec.Site)
		}
	}
}

func TestMonitorMinAllocSizeFiltersEvents(t *testing.T) {
	res, err := Run(testWorkload(), Config{
		Machine: testMachine(), Cores: 4, Seed: 1, MakePolicy: ddrFactory(),
		Monitor: &MonitorConfig{SamplePeriod: 500, MinAllocSize: units.MB},
	})
	if err != nil {
		t.Fatal(err)
	}
	// scratch (512 KB) is below the 1 MB threshold: only hot and cold
	// are instrumented.
	if n := res.Trace.CountType(trace.EvAlloc); n != 2 {
		t.Fatalf("filtered trace allocs = %d, want 2", n)
	}
}

func TestReallocGrows(t *testing.T) {
	w := testWorkload()
	w.Objects[1].ReallocTo = 6 * units.MB // cold: 4 MB -> 6 MB mid-run
	res, err := Run(w, Config{
		Machine: testMachine(), Cores: 4, Seed: 1, MakePolicy: ddrFactory(),
		Monitor: &MonitorConfig{SamplePeriod: 1000, MinAllocSize: 4 * units.KB},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Trace.CountType(trace.EvRealloc); n != 1 {
		t.Fatalf("realloc events = %d, want 1", n)
	}
	// Realloc counts as an extra alloc call.
	if res.AllocCalls != 7 {
		t.Fatalf("alloc calls = %d, want 7", res.AllocCalls)
	}
}

func TestRefScale(t *testing.T) {
	full, err := Run(testWorkload(), Config{Machine: testMachine(), Cores: 4, Seed: 1, MakePolicy: ddrFactory()})
	if err != nil {
		t.Fatal(err)
	}
	tenth, err := Run(testWorkload(), Config{Machine: testMachine(), Cores: 4, Seed: 1, MakePolicy: ddrFactory(), RefScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if tenth.LLCAccesses >= full.LLCAccesses {
		t.Fatal("RefScale did not reduce access volume")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(testWorkload(), Config{Machine: testMachine()}); err == nil {
		t.Fatal("missing policy factory accepted")
	}
	bad := testWorkload()
	bad.Iterations = 0
	if _, err := Run(bad, Config{Machine: testMachine(), MakePolicy: ddrFactory()}); err == nil {
		t.Fatal("invalid workload accepted")
	}
	m := testMachine()
	m.Cores = 0
	if _, err := Run(testWorkload(), Config{Machine: m, MakePolicy: ddrFactory()}); err == nil {
		t.Fatal("invalid machine accepted")
	}
	m2 := testMachine()
	m2.Tiers = m2.Tiers[:1]
	if _, err := Run(testWorkload(), Config{Machine: m2, MakePolicy: ddrFactory()}); err == nil {
		t.Fatal("machine without MCDRAM accepted")
	}
}

func TestCacheModeRunsAndHelps(t *testing.T) {
	flat := testMachine()
	cachem := testMachine()
	cachem.Mode = mem.CacheMode
	ddr, err := Run(testWorkload(), Config{Machine: flat, Cores: 64, Seed: 1, MakePolicy: ddrFactory()})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := Run(testWorkload(), Config{Machine: cachem, Cores: 64, Seed: 1, MakePolicy: ddrFactory()})
	if err != nil {
		t.Fatal(err)
	}
	// The toy working set fits easily in the 16 GB MCDRAM cache, so
	// cache mode must beat plain DDR.
	if cm.FOM <= ddr.FOM {
		t.Fatalf("cache mode (%f) not faster than DDR (%f)", cm.FOM, ddr.FOM)
	}
}

func TestStorageClassAndPatternStrings(t *testing.T) {
	if Dynamic.String() != "dynamic" || Static.String() != "static" || Stack.String() != "stack" {
		t.Fatal("StorageClass strings wrong")
	}
	if StorageClass(9).String() != "class(9)" {
		t.Fatal("unknown class string wrong")
	}
	for p, want := range map[Pattern]string{Sequential: "sequential", Strided: "strided", GatherRandom: "gather", PointerChase: "chase", Pattern(9): "pattern(9)"} {
		if p.String() != want {
			t.Fatalf("Pattern(%d) = %q, want %q", p, p.String(), want)
		}
	}
}
