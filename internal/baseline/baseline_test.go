package baseline

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/callstack"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/units"
	"repro/internal/xrand"
)

func newMemkind(t *testing.T, hbw int64) *alloc.Memkind {
	t.Helper()
	sp := alloc.NewSpace(mem.NewPageTable(mem.TierDDR))
	mk, err := alloc.NewMemkind(sp, units.GB, hbw)
	if err != nil {
		t.Fatal(err)
	}
	return mk
}

func mkPolicy(t *testing.T, f engine.PolicyFactory, mk *alloc.Memkind) engine.Policy {
	t.Helper()
	prog := callstack.NewProgram("x", xrand.New(1))
	p, err := f(mk, prog)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDDRPolicyNeverUsesHBW(t *testing.T) {
	mk := newMemkind(t, 64*units.MB)
	p := mkPolicy(t, DDR(), mk)
	if p.Name() != "ddr" {
		t.Fatalf("name = %q", p.Name())
	}
	for i := 0; i < 10; i++ {
		addr, err := p.Malloc(nil, 4*units.MB)
		if err != nil {
			t.Fatal(err)
		}
		if k, _ := mk.KindOf(addr); k != alloc.KindDefault {
			t.Fatal("ddr policy allocated from HBW")
		}
	}
	if mk.Arena(alloc.KindHBW).HWM() != 0 {
		t.Fatal("HBW heap touched")
	}
	if p.OverheadCycles() != 0 {
		t.Fatal("ddr policy charged overhead")
	}
}

func TestNumactlPrefersHBWThenExhausts(t *testing.T) {
	mk := newMemkind(t, 10*units.MB)
	p := mkPolicy(t, Numactl(), mk)
	if p.Name() != "numactl" {
		t.Fatalf("name = %q", p.Name())
	}
	a1, err := p.Malloc(nil, 4*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := mk.KindOf(a1); k != alloc.KindHBW {
		t.Fatal("first allocation not on HBW")
	}
	// 8 MB does not fit the remaining ~6 MB: falls back AND exhausts
	// the leftover (first-touch page consumption).
	a2, err := p.Malloc(nil, 8*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := mk.KindOf(a2); k != alloc.KindDefault {
		t.Fatal("overflow allocation not on DDR")
	}
	if hwm := mk.Arena(alloc.KindHBW).HWM(); hwm != 10*units.MB {
		t.Fatalf("HBW high-water mark = %d, want fully exhausted", hwm)
	}
	// A small allocation that would have fit pre-exhaust now goes DDR.
	a3, err := p.Malloc(nil, units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := mk.KindOf(a3); k != alloc.KindDefault {
		t.Fatal("post-exhaust allocation landed on HBW")
	}
}

func TestNumactlFreeAndRealloc(t *testing.T) {
	mk := newMemkind(t, 32*units.MB)
	p := mkPolicy(t, Numactl(), mk)
	a, _ := p.Malloc(nil, 4*units.MB)
	na, err := p.Realloc(nil, a, 8*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := mk.KindOf(na); k != alloc.KindHBW {
		t.Fatal("realloc left HBW despite room")
	}
	if err := p.Free(na); err != nil {
		t.Fatal(err)
	}
}

func TestAutoHBWThreshold(t *testing.T) {
	mk := newMemkind(t, 64*units.MB)
	p := mkPolicy(t, AutoHBW(units.MB), mk)
	if p.Name() != "autohbw" {
		t.Fatalf("name = %q", p.Name())
	}
	small, err := p.Malloc(nil, 512*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := mk.KindOf(small); k != alloc.KindDefault {
		t.Fatal("sub-threshold allocation promoted")
	}
	big, err := p.Malloc(nil, 2*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := mk.KindOf(big); k != alloc.KindHBW {
		t.Fatal("above-threshold allocation not promoted")
	}
}

func TestAutoHBWPaysForFailedAttempts(t *testing.T) {
	mk := newMemkind(t, 4*units.MB)
	p := mkPolicy(t, AutoHBW(units.MB), mk)
	if _, err := p.Malloc(nil, 3*units.MB); err != nil {
		t.Fatal(err)
	}
	before := p.OverheadCycles()
	// Fast memory exhausted: each further threshold-passing malloc
	// pays the failed hbw_malloc attempt.
	for i := 0; i < 5; i++ {
		if _, err := p.Malloc(nil, 2*units.MB); err != nil {
			t.Fatal(err)
		}
	}
	gained := p.OverheadCycles() - before
	if gained < 5*hbwFailCycles {
		t.Fatalf("failed attempts cost %d, want >= %d", gained, 5*hbwFailCycles)
	}
}

func TestAutoHBWPenaltyBand(t *testing.T) {
	mk := newMemkind(t, 64*units.MB)
	p := mkPolicy(t, AutoHBW(units.MB), mk)
	if _, err := p.Malloc(nil, units.MB+512*units.KB); err != nil {
		t.Fatal(err)
	}
	inBand := p.OverheadCycles()
	p2 := mkPolicy(t, AutoHBW(units.MB), newMemkind(t, 64*units.MB))
	if _, err := p2.Malloc(nil, 4*units.MB); err != nil {
		t.Fatal(err)
	}
	if inBand <= p2.OverheadCycles() {
		t.Fatal("1-2 MB allocation should cost more than a 4 MB one")
	}
}

func TestAutoHBWRealloc(t *testing.T) {
	mk := newMemkind(t, 64*units.MB)
	p := mkPolicy(t, AutoHBW(units.MB), mk)
	a, err := p.Malloc(nil, 2*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	before := p.OverheadCycles()
	na, err := p.Realloc(nil, a, 4*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := mk.KindOf(na); k != alloc.KindHBW {
		t.Fatal("realloc left the HBW heap")
	}
	if p.OverheadCycles() <= before {
		t.Fatal("HBW realloc should charge allocator cost")
	}
	// DDR-resident pointers realloc without extra cost.
	d, _ := p.Malloc(nil, 64*units.KB)
	before = p.OverheadCycles()
	if _, err := p.Realloc(nil, d, 128*units.KB); err != nil {
		t.Fatal(err)
	}
	if p.OverheadCycles() != before {
		t.Fatal("DDR realloc charged HBW cost")
	}
	if err := p.Free(na); err != nil {
		t.Fatal(err)
	}
}

func TestNumactlReallocFallsBackWhenFull(t *testing.T) {
	mk := newMemkind(t, 8*units.MB)
	p := mkPolicy(t, Numactl(), mk)
	a, err := p.Malloc(nil, 6*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	// Growing beyond the HBW capacity must move the object to DDR.
	na, err := p.Realloc(nil, a, 12*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := mk.KindOf(na); k != alloc.KindDefault {
		t.Fatal("oversized realloc did not move to DDR")
	}
	if _, live := mk.Arena(alloc.KindHBW).SizeOf(a); live {
		t.Fatal("old HBW allocation leaked")
	}
}

func TestDDRRealloc(t *testing.T) {
	mk := newMemkind(t, 8*units.MB)
	p := mkPolicy(t, DDR(), mk)
	a, _ := p.Malloc(nil, units.MB)
	na, err := p.Realloc(nil, a, 2*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := mk.KindOf(na); k != alloc.KindDefault {
		t.Fatal("ddr realloc moved kinds")
	}
	if err := p.Free(na); err != nil {
		t.Fatal(err)
	}
}

// TestAutoHBWReallocSpillsToDDR: an HBW block that outgrows the HBW
// heap moves to DDR, as autohbw's Malloc falls back, instead of
// failing the run. The spill pays hbwFailCycles, the failed attempt a
// falling-back Malloc pays, and not the HBW allocator cost.
func TestAutoHBWReallocSpillsToDDR(t *testing.T) {
	mk := newMemkind(t, 3*units.MB)
	p := mkPolicy(t, AutoHBW(units.MB), mk)
	a, err := p.Malloc(nil, 2*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := mk.KindOf(a); k != alloc.KindHBW {
		t.Fatal("2 MB allocation not on HBW")
	}
	before := p.OverheadCycles()
	na, err := p.Realloc(nil, a, 4*units.MB)
	if err != nil {
		t.Fatalf("realloc past the HBW heap: %v", err)
	}
	if k, _ := mk.KindOf(na); k != alloc.KindDefault {
		t.Fatalf("grown block on %v, want DDR", k)
	}
	hbw := mk.Arena(alloc.KindHBW)
	if _, live := hbw.SizeOf(a); live || hbw.Mallocs() != hbw.Frees() {
		t.Fatalf("old HBW block not freed: %d mallocs, %d frees", hbw.Mallocs(), hbw.Frees())
	}
	if got := p.OverheadCycles() - before; got != hbwFailCycles {
		t.Fatalf("spilled realloc cost %d cycles, want hbwFailCycles (%d)", got, hbwFailCycles)
	}
}
