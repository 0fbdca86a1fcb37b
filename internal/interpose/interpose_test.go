package interpose

import (
	"testing"

	"repro/internal/advisor"
	"repro/internal/alloc"
	"repro/internal/callstack"
	"repro/internal/mem"
	"repro/internal/units"
	"repro/internal/xrand"
)

// fixture builds a memkind, program, and a report selecting the
// "hotSite" call path with the given budget.
type fixture struct {
	mk   *alloc.Memkind
	prog *callstack.Program
	rep  *advisor.Report
	hot  callstack.Stack
	cold callstack.Stack
}

func newFixture(t *testing.T, budget int64) *fixture {
	t.Helper()
	pt := mem.NewPageTable(mem.TierDDR)
	sp := alloc.NewSpace(pt)
	mk, err := alloc.NewMemkind(sp, 512*units.MB, 16*units.GB)
	if err != nil {
		t.Fatal(err)
	}
	prog := callstack.NewProgram("app", xrand.New(1))
	hot := prog.Site("main", "init", "allocHot")
	cold := prog.Site("main", "init", "allocCold")
	rep := &advisor.Report{
		App: "app", Strategy: "misses(0%)", Budget: budget,
		Entries: []advisor.Entry{{
			Tier: "MCDRAM", ID: string(prog.Table.Translate(hot)),
			Site: prog.Table.Translate(hot), Size: 8 * units.MB, Misses: 1000,
		}},
		LBSize: 8 * units.MB, UBSize: 8 * units.MB,
	}
	return &fixture{mk: mk, prog: prog, rep: rep, hot: hot, cold: cold}
}

func TestMatchedSiteGoesToHBW(t *testing.T) {
	f := newFixture(t, 64*units.MB)
	lib, err := New(f.mk, f.prog, f.rep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := lib.Malloc(f.hot, 8*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := f.mk.KindOf(addr); k != alloc.KindHBW {
		t.Fatalf("matched allocation on %v, want hbw", k)
	}
	st := lib.stats
	if st.hbwAllocations != 1 || st.unwinds != 1 || st.translates != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if lib.used[lib.fastKind] <= 0 || st.hbwHWM <= 0 {
		t.Fatal("usage accounting missing")
	}
	if err := lib.Free(addr); err != nil {
		t.Fatal(err)
	}
	if lib.used[lib.fastKind] != 0 {
		t.Fatalf("used = %d after free", lib.used[lib.fastKind])
	}
}

func TestUnmatchedSiteGoesToDDR(t *testing.T) {
	f := newFixture(t, 64*units.MB)
	lib, _ := New(f.mk, f.prog, f.rep, Options{})
	addr, err := lib.Malloc(f.cold, 8*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := f.mk.KindOf(addr); k != alloc.KindDefault {
		t.Fatalf("unmatched allocation on %v, want default", k)
	}
}

func TestASLRResilience(t *testing.T) {
	// The report was produced by a *different* run (different ASLR):
	// rebuild the program with a new seed and verify matching still
	// works through translation.
	f := newFixture(t, 64*units.MB)
	prog2 := callstack.NewProgram("app", xrand.New(999))
	hot2 := prog2.Site("main", "init", "allocHot")
	lib, _ := New(f.mk, prog2, f.rep, Options{})
	addr, err := lib.Malloc(hot2, 8*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := f.mk.KindOf(addr); k != alloc.KindHBW {
		t.Fatal("translation failed to bridge ASLR between runs")
	}
}

func TestSizeFilterSkipsUnwind(t *testing.T) {
	f := newFixture(t, 64*units.MB)
	lib, _ := New(f.mk, f.prog, f.rep, Options{})
	// 1 KB is far below lb (8 MB): no unwind, no translate.
	if _, err := lib.Malloc(f.hot, units.KB); err != nil {
		t.Fatal(err)
	}
	if st := lib.stats; st.unwinds != 0 || st.translates != 0 || st.sizeFiltered != 1 {
		t.Fatalf("stats = %+v, want size-filtered skip", st)
	}
	// A size inside [lb, ub] passes the filter and unwinds.
	if _, err := lib.Malloc(f.hot, 8*units.MB); err != nil {
		t.Fatal(err)
	}
	if st := lib.stats; st.unwinds != 1 || st.sizeFiltered != 1 {
		t.Fatalf("stats = %+v, want one unwind past the filter", st)
	}
}

func TestDecisionCacheAvoidsRetranslation(t *testing.T) {
	f := newFixture(t, units.GB)
	lib, _ := New(f.mk, f.prog, f.rep, Options{})
	var addrs []uint64
	for i := 0; i < 10; i++ {
		a, err := lib.Malloc(f.hot, 8*units.MB)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	st := lib.stats
	if st.translates != 1 {
		t.Fatalf("translates = %d, want 1 (cache)", st.translates)
	}
	if st.cacheHits != 9 || st.cacheMisses != 1 || st.unwinds != 10 {
		t.Fatalf("cache hits/misses = %d/%d over %d unwinds", st.cacheHits, st.cacheMisses, st.unwinds)
	}
	// The overhead is ten unwinds, one translation and ten HBW allocations.
	want := 10*callstack.UnwindCost(len(f.hot)) + callstack.TranslateCost(len(f.hot)) + 10*alloc.HBWAllocPenalty(8*units.MB)
	if lib.OverheadCycles() != want {
		t.Fatalf("overhead = %d cycles, want %d", lib.OverheadCycles(), want)
	}
	for _, a := range addrs {
		lib.Free(a)
	}
}

func TestBudgetEnforced(t *testing.T) {
	// Budget fits exactly one 8 MB allocation.
	f := newFixture(t, 9*units.MB)
	lib, _ := New(f.mk, f.prog, f.rep, Options{})
	a1, err := lib.Malloc(f.hot, 8*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := f.mk.KindOf(a1); k != alloc.KindHBW {
		t.Fatal("first allocation should be fast")
	}
	// Second matching allocation exceeds the budget: DDR fallback.
	a2, err := lib.Malloc(f.hot, 8*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := f.mk.KindOf(a2); k != alloc.KindDefault {
		t.Fatal("over-budget allocation not demoted to DDR")
	}
	if lib.stats.notFit != 1 {
		t.Fatalf("notFit = %d, want 1", lib.stats.notFit)
	}
	// Freeing the first releases budget for a third.
	if err := lib.Free(a1); err != nil {
		t.Fatal(err)
	}
	a3, err := lib.Malloc(f.hot, 8*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := f.mk.KindOf(a3); k != alloc.KindHBW {
		t.Fatal("budget not released by free")
	}
}

func TestBudgetOverride(t *testing.T) {
	f := newFixture(t, 64*units.MB)
	lib, _ := New(f.mk, f.prog, f.rep, Options{BudgetOverride: units.MB})
	if lib.budgets[lib.fastKind] != units.MB {
		t.Fatalf("budget = %d, want override", lib.budgets[lib.fastKind])
	}
	addr, err := lib.Malloc(f.hot, 8*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := f.mk.KindOf(addr); k != alloc.KindDefault {
		t.Fatal("allocation above overridden budget should go to DDR")
	}
}

func TestReallocKeepsOwnership(t *testing.T) {
	f := newFixture(t, 64*units.MB)
	lib, _ := New(f.mk, f.prog, f.rep, Options{})
	a, err := lib.Malloc(f.hot, 8*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	na, err := lib.Realloc(f.hot, a, 10*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := f.mk.KindOf(na); k != alloc.KindHBW {
		t.Fatal("grown matched object left fast memory despite budget room")
	}
	if lib.used[lib.fastKind] < 10*units.MB {
		t.Fatalf("used = %d after grow", lib.used[lib.fastKind])
	}
	// Growing beyond the budget demotes to DDR and releases usage.
	na2, err := lib.Realloc(f.hot, na, 70*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := f.mk.KindOf(na2); k != alloc.KindDefault {
		t.Fatal("over-budget grow should demote to DDR")
	}
	if lib.used[lib.fastKind] != 0 {
		t.Fatalf("used = %d after demotion", lib.used[lib.fastKind])
	}
	// Realloc of a DDR pointer stays DDR.
	na3, err := lib.Realloc(f.cold, na2, 90*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := f.mk.KindOf(na3); k != alloc.KindDefault {
		t.Fatal("DDR realloc moved kinds")
	}
	// Realloc(0, n) behaves as Malloc.
	na4, err := lib.Realloc(f.hot, 0, 8*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := f.mk.KindOf(na4); k != alloc.KindHBW {
		t.Fatal("realloc(0, n) did not take the malloc path")
	}
}

func TestNewErrors(t *testing.T) {
	f := newFixture(t, 64*units.MB)
	if _, err := New(nil, f.prog, f.rep, Options{}); err == nil {
		t.Fatal("nil memkind accepted")
	}
	if _, err := New(f.mk, nil, f.rep, Options{}); err == nil {
		t.Fatal("nil program accepted")
	}
	if _, err := New(f.mk, f.prog, nil, Options{}); err == nil {
		t.Fatal("nil report accepted")
	}
	bad := *f.rep
	bad.Budget = 0
	if _, err := New(f.mk, f.prog, &bad, Options{}); err == nil {
		t.Fatal("zero budget accepted")
	}
}

func TestEmptySelectionShortCircuits(t *testing.T) {
	f := newFixture(t, 64*units.MB)
	empty := &advisor.Report{App: "app", Budget: 64 * units.MB}
	lib, _ := New(f.mk, f.prog, empty, Options{})
	if _, err := lib.Malloc(f.hot, 8*units.MB); err != nil {
		t.Fatal(err)
	}
	if st := lib.stats; st.unwinds != 0 {
		t.Fatalf("empty selection should never unwind, stats = %+v", st)
	}
}
