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

// partitionFixture builds a library whose report partitions the first
// 16 MB of a 64 MB object reached via "allocBig".
type partitionFixture struct {
	mk   *alloc.Memkind
	pt   *mem.PageTable
	prog *callstack.Program
	rep  *advisor.Report
	lib  *Library
	big  callstack.Stack
}

func newPartitionFixture(t *testing.T, budget int64) *partitionFixture {
	t.Helper()
	pt := mem.NewPageTable(mem.TierDDR)
	sp := alloc.NewSpace(pt)
	mk, err := alloc.NewMemkind(sp, units.GB, 16*units.GB)
	if err != nil {
		t.Fatal(err)
	}
	prog := callstack.NewProgram("app", xrand.New(1))
	big := prog.Site("main", "init", "allocBig")
	rep := &advisor.Report{
		App: "app", Strategy: "density+partition", Budget: budget,
		Entries: []advisor.Entry{{
			Tier: "MCDRAM", ID: string(prog.Table.Translate(big)),
			Site: prog.Table.Translate(big), Size: 64 * units.MB, Misses: 800,
			PartOffset: 8 * units.MB, PartSize: 16 * units.MB,
		}},
		LBSize: 64 * units.MB, UBSize: 64 * units.MB,
	}
	lib, err := New(mk, prog, rep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &partitionFixture{mk: mk, pt: pt, prog: prog, rep: rep, lib: lib, big: big}
}

func TestPartitionBindsHotRange(t *testing.T) {
	f := newPartitionFixture(t, 64*units.MB)
	addr, err := f.lib.Malloc(f.big, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	// The object lives on the DDR heap...
	if k, _ := f.mk.KindOf(addr); k != alloc.KindDefault {
		t.Fatal("partitioned object should stay on the default heap")
	}
	// ... but the hot range's pages resolve to MCDRAM.
	hotStart := addr + uint64(8*units.MB)
	if f.pt.TierOf(hotStart) != mem.TierMCDRAM {
		t.Fatal("hot range start not bound to MCDRAM")
	}
	if f.pt.TierOf(hotStart+uint64(16*units.MB)-1) != mem.TierMCDRAM {
		t.Fatal("hot range end not bound to MCDRAM")
	}
	// Cold parts stay on DDR.
	if f.pt.TierOf(addr) != mem.TierDDR {
		t.Fatal("cold prefix bound to MCDRAM")
	}
	if f.pt.TierOf(addr+uint64(32*units.MB)) != mem.TierDDR {
		t.Fatal("cold suffix bound to MCDRAM")
	}
	// Budget accounting covers only the bound range.
	if f.lib.used[f.lib.fastKind] != 16*units.MB {
		t.Fatalf("used = %d, want the 16 MB partition", f.lib.used[f.lib.fastKind])
	}
	st := f.lib.stats
	if st.partitioned != 1 || st.hbwAllocations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Freeing unbinds and releases budget.
	if err := f.lib.Free(addr); err != nil {
		t.Fatal(err)
	}
	if f.pt.TierOf(hotStart) != mem.TierDDR {
		t.Fatal("free did not unbind the hot range")
	}
	if f.lib.used[f.lib.fastKind] != 0 {
		t.Fatalf("used = %d after free", f.lib.used[f.lib.fastKind])
	}
}

func TestPartitionBudgetEnforced(t *testing.T) {
	f := newPartitionFixture(t, 20*units.MB)
	a1, err := f.lib.Malloc(f.big, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	// Second allocation's 16 MB partition exceeds the 20 MB budget:
	// falls back to plain DDR, nothing bound.
	a2, err := f.lib.Malloc(f.big, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if f.pt.TierOf(a2+uint64(8*units.MB)) != mem.TierDDR {
		t.Fatal("over-budget partition still bound pages")
	}
	if f.lib.stats.notFit != 1 {
		t.Fatalf("notFit = %d", f.lib.stats.notFit)
	}
	_ = a1
}

func TestPartitionClampedToAllocation(t *testing.T) {
	f := newPartitionFixture(t, 64*units.MB)
	// Allocation smaller than offset+partsize: the bound range clamps.
	addr, err := f.lib.Malloc(f.big, 12*units.MB) // hot range 8..24 MB clamps to 8..12
	if err != nil {
		t.Fatal(err)
	}
	// Size filter: 12 MB < lb 64 MB would reject; the fixture's lb/ub
	// covers only 64 MB — so this allocation actually skipped matching
	// and nothing is bound. Verify fail-closed behaviour.
	if f.pt.TierOf(addr+uint64(9*units.MB)) != mem.TierDDR {
		t.Fatal("size-filtered allocation had pages bound")
	}
	// A report whose size range admits 12 MB: the clamping path engages.
	f2 := newPartitionFixture(t, 64*units.MB)
	rep := *f2.rep
	rep.LBSize = 12 * units.MB
	lib, err := New(f2.mk, f2.prog, &rep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	addr2, err := lib.Malloc(f2.big, 12*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if f2.pt.TierOf(addr2+uint64(9*units.MB)) != mem.TierMCDRAM {
		t.Fatal("clamped hot range not bound")
	}
	if lib.used[lib.fastKind] != 4*units.MB {
		t.Fatalf("used = %d, want clamped 4 MB", lib.used[lib.fastKind])
	}
}

func TestPartitionReallocDemotes(t *testing.T) {
	f := newPartitionFixture(t, 64*units.MB)
	addr, err := f.lib.Malloc(f.big, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	na, err := f.lib.Realloc(f.big, addr, 80*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if f.lib.used[f.lib.fastKind] != 0 {
		t.Fatalf("used = %d after realloc demotion", f.lib.used[f.lib.fastKind])
	}
	if k, _ := f.mk.KindOf(na); k != alloc.KindDefault {
		t.Fatal("realloc moved kinds")
	}
}
