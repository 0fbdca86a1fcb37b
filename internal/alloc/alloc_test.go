package alloc

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/units"
	"repro/internal/xrand"
)

func newTestSpace() *Space {
	return NewSpace(mem.NewPageTable(mem.TierDDR))
}

func newTestArena(t *testing.T, size int64) *Arena {
	t.Helper()
	seg, err := newTestSpace().AddSegment("test", size, mem.TierDDR)
	if err != nil {
		t.Fatal(err)
	}
	return NewArena(seg)
}

func TestSpaceSegmentsDisjointAndTiered(t *testing.T) {
	pt := mem.NewPageTable(mem.TierDDR)
	sp := NewSpace(pt)
	a, err := sp.AddSegment("a", units.MB, mem.TierMCDRAM)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sp.AddSegment("b", units.MB, mem.TierDDR)
	if err != nil {
		t.Fatal(err)
	}
	if a.End() > b.Base {
		t.Fatal("segments overlap")
	}
	if pt.TierOf(a.Base) != mem.TierMCDRAM || pt.TierOf(b.Base) != mem.TierDDR {
		t.Fatal("segment tiers not recorded in page table")
	}
}

func TestSpaceRejectsBadSize(t *testing.T) {
	sp := newTestSpace()
	if _, err := sp.AddSegment("bad", 0, mem.TierDDR); err == nil {
		t.Fatal("zero-size segment accepted")
	}
}

// TestSpaceRefusesSegmentsAtMaxAddr pins the address bound that keeps
// the cache-mode front cache's 32-bit tags exact: a segment may end one
// byte below mem.MaxAddr, not at or above it, and a refused segment
// leaves the space unchanged.
func TestSpaceRefusesSegmentsAtMaxAddr(t *testing.T) {
	sp := newTestSpace()
	base, gen := sp.next, sp.pt.Gen()
	if _, err := sp.AddSegment("at", int64(mem.MaxAddr-base), mem.TierDDR); err == nil {
		t.Fatal("segment ending at MaxAddr accepted")
	}
	if _, err := sp.AddSegment("above", int64(mem.MaxAddr), mem.TierDDR); err == nil {
		t.Fatal("segment ending above MaxAddr accepted")
	}
	if sp.next != base || sp.pt.Gen() != gen {
		t.Fatal("refused segment changed the space")
	}
	seg, err := sp.AddSegment("below", int64(mem.MaxAddr-base-1), mem.TierDDR)
	if err != nil {
		t.Fatalf("segment ending one byte below MaxAddr refused: %v", err)
	}
	if seg.End() != mem.MaxAddr-1 {
		t.Fatalf("segment ends at %#x, want %#x", seg.End(), uint64(mem.MaxAddr-1))
	}
	// The next segment would start past the bound (segmentGap).
	if _, err := sp.AddSegment("next", 1, mem.TierDDR); err == nil {
		t.Fatal("segment starting above MaxAddr accepted")
	}
}

func TestArenaMallocFreeRoundTrip(t *testing.T) {
	a := newTestArena(t, units.MB)
	p, err := a.Malloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if !owns(a, p) {
		t.Fatal("arena does not own its own allocation")
	}
	if s, _ := a.SizeOf(p); s < 1000 {
		t.Fatalf("SizeOf = %d, want >= 1000", s)
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if a.used != 0 {
		t.Fatalf("used = %d after free, want 0", a.used)
	}
	if a.HWM() < 1000 {
		t.Fatalf("HWM = %d, want >= 1000", a.HWM())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestArenaAlignment(t *testing.T) {
	a := newTestArena(t, units.MB)
	for i := 0; i < 10; i++ {
		p, err := a.Malloc(int64(i*7 + 1))
		if err != nil {
			t.Fatal(err)
		}
		if p%allocAlign != 0 {
			t.Fatalf("allocation %d at %#x not %d-aligned", i, p, allocAlign)
		}
	}
}

func TestArenaZeroSizeMalloc(t *testing.T) {
	a := newTestArena(t, units.MB)
	p, err := a.Malloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if !owns(a, p) {
		t.Fatal("zero-size allocation not tracked")
	}
}

func TestArenaNegativeSize(t *testing.T) {
	a := newTestArena(t, units.MB)
	if _, err := a.Malloc(-1); err == nil {
		t.Fatal("negative malloc accepted")
	}
}

func TestArenaOOM(t *testing.T) {
	a := newTestArena(t, 10*units.KB)
	if _, err := a.Malloc(11 * units.KB); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if a.Failures() != 1 {
		t.Fatalf("failures = %d, want 1", a.Failures())
	}
}

func TestArenaDoubleFree(t *testing.T) {
	a := newTestArena(t, units.MB)
	p, _ := a.Malloc(64)
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free err = %v, want ErrBadFree", err)
	}
}

func TestArenaFreeUnknown(t *testing.T) {
	a := newTestArena(t, units.MB)
	if err := a.Free(0xdeadbeef); !errors.Is(err, ErrBadFree) {
		t.Fatalf("err = %v, want ErrBadFree", err)
	}
}

func TestArenaCoalescingAllowsFullReuse(t *testing.T) {
	a := newTestArena(t, 1*units.MB)
	var ps []uint64
	for i := 0; i < 8; i++ {
		p, err := a.Malloc(100 * units.KB)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	// Free in awkward order; afterwards one big alloc must succeed.
	for _, i := range []int{1, 3, 5, 7, 0, 2, 4, 6} {
		if err := a.Free(ps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Malloc(units.MB - allocAlign); err != nil {
		t.Fatalf("coalescing failed: %v", err)
	}
}

func TestArenaReallocGrowAndShrink(t *testing.T) {
	a := newTestArena(t, units.MB)
	p, _ := a.Malloc(128)
	// Shrink: stays in place.
	q, err := a.Realloc(p, 64)
	if err != nil || q != p {
		t.Fatalf("shrink realloc moved (%#x -> %#x), err=%v", p, q, err)
	}
	// Grow: may move, must stay owned.
	q, err = a.Realloc(p, 64*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	if !owns(a, q) {
		t.Fatal("grown realloc not owned")
	}
	if q != p && owns(a, p) {
		t.Fatal("old allocation leaked after move")
	}
	// Realloc(0, n) behaves as malloc.
	q2, err := a.Realloc(0, 100)
	if err != nil || !owns(a, q2) {
		t.Fatalf("realloc(0, n) failed: %v", err)
	}
}

func TestArenaHWMTracksPeak(t *testing.T) {
	a := newTestArena(t, units.MB)
	p1, _ := a.Malloc(100 * units.KB)
	p2, _ := a.Malloc(200 * units.KB)
	peak := a.used
	a.Free(p1)
	a.Free(p2)
	a.Malloc(10 * units.KB)
	if a.HWM() != peak {
		t.Fatalf("HWM = %d, want peak %d", a.HWM(), peak)
	}
}

// TestArenaRandomTortureProperty drives random malloc/free/realloc
// traffic and asserts allocator invariants plus non-overlap of live
// allocations after every step batch.
func TestArenaRandomTortureProperty(t *testing.T) {
	f := func(seed uint64) bool {
		sp := newTestSpace()
		seg, _ := sp.AddSegment("torture", 256*units.KB, mem.TierDDR)
		a := NewArena(seg)
		r := xrand.New(seed)
		live := map[uint64]int64{}
		for step := 0; step < 300; step++ {
			switch r.Intn(3) {
			case 0, 1: // malloc biased
				size := int64(r.Intn(4096) + 1)
				p, err := a.Malloc(size)
				if err != nil {
					continue // OOM is legal under fragmentation
				}
				s, _ := a.SizeOf(p)
				// Overlap check against all live allocations.
				for q, qs := range live {
					if p < q+uint64(qs) && q < p+uint64(s) {
						return false
					}
				}
				live[p] = s
			case 2: // free a random live pointer
				for p := range live {
					if a.Free(p) != nil {
						return false
					}
					delete(live, p)
					break
				}
			}
		}
		return a.CheckInvariants() == nil && len(a.live) == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMemkindRouting(t *testing.T) {
	sp := newTestSpace()
	mk, err := NewMemkind(sp, 4*units.MB, 2*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := mk.Malloc(KindDefault, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := mk.Malloc(KindHBW, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := mk.KindOf(pd); k != KindDefault {
		t.Fatalf("KindOf(default ptr) = %v", k)
	}
	if k, _ := mk.KindOf(ph); k != KindHBW {
		t.Fatalf("KindOf(hbw ptr) = %v", k)
	}
	// Page table must place the HBW pointer on MCDRAM.
	if sp.PageTable().TierOf(ph) != mem.TierMCDRAM {
		t.Fatal("HBW allocation not on MCDRAM pages")
	}
	if sp.PageTable().TierOf(pd) != mem.TierDDR {
		t.Fatal("default allocation not on DDR pages")
	}
	// Frees route by ownership.
	if err := mk.Free(ph); err != nil {
		t.Fatal(err)
	}
	if err := mk.Free(pd); err != nil {
		t.Fatal(err)
	}
	if err := mk.Free(0x1234); !errors.Is(err, ErrBadFree) {
		t.Fatalf("foreign free err = %v, want ErrBadFree", err)
	}
}

func TestMemkindHBWCapacityIsEnforced(t *testing.T) {
	mk, err := NewMemkind(newTestSpace(), 4*units.MB, 64*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mk.Malloc(KindHBW, 128*units.KB); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("oversized HBW malloc err = %v, want OOM", err)
	}
	// Default heap still works.
	if _, err := mk.Malloc(KindDefault, 128*units.KB); err != nil {
		t.Fatal(err)
	}
}

func TestMemkindReallocStaysInKind(t *testing.T) {
	mk, _ := NewMemkind(newTestSpace(), 4*units.MB, units.MB)
	p, _ := mk.Malloc(KindHBW, 128)
	q, kind, err := mk.ReallocFallback(p, 100*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := mk.KindOf(q); k != KindHBW || kind != KindHBW {
		t.Fatalf("realloc moved across kinds: %v (reported %v)", k, kind)
	}
	if q2, kind, err := mk.ReallocFallback(0, 100); err != nil || q2 == 0 || kind != KindDefault {
		t.Fatalf("realloc(0,n) = %#x on %v: %v", q2, kind, err)
	}
}

// TestMemkindReallocSpills: a block that outgrows its heap moves down
// KindDefault's fallback chain, the old block is freed, and the serving
// kind is reported; with every heap full the realloc fails and the old
// block stays live.
func TestMemkindReallocSpills(t *testing.T) {
	mk, err := NewMemkindHierarchy(newTestSpace(), []HeapSpec{
		{Tier: mem.TierSpec{ID: mem.TierDDR, Name: "DDR", RelativePerf: 1}, Size: 4 * units.MB},
		{Tier: mem.TierSpec{ID: mem.TierMCDRAM, Name: "MCDRAM", RelativePerf: 4.8}, Size: 2 * units.MB},
		{Tier: mem.TierSpec{ID: mem.TierNVM, Name: "NVM", RelativePerf: 0.4}, Size: 8 * units.MB},
	})
	if err != nil {
		t.Fatal(err)
	}
	const nvm = Kind(2)
	hbw, _ := mk.Malloc(KindHBW, units.MB)
	// 3 MB outgrows the 2 MB HBW heap: the block spills to the default.
	q, kind, err := mk.ReallocFallback(hbw, 3*units.MB)
	if err != nil || kind != KindDefault {
		t.Fatalf("HBW spill = %v on %v, want the default heap", err, kind)
	}
	if k, _ := mk.KindOf(q); k != KindDefault || mk.Arena(KindHBW).used != 0 {
		t.Fatalf("spilled block on %v, %d HBW bytes still live", k, mk.Arena(KindHBW).used)
	}
	// 6 MB outgrows the default heap too: the block spills to NVM,
	// never up to the faster HBW heap.
	r, kind, err := mk.ReallocFallback(q, 6*units.MB)
	if err != nil || kind != nvm || mk.Arena(KindDefault).used != 0 {
		t.Fatalf("default spill = %v on %v (%d default bytes live), want NVM", err, kind, mk.Arena(KindDefault).used)
	}
	// A shrink stays in place and reports the owning heap.
	if s, kind, err := mk.ReallocFallback(r, 5*units.MB); err != nil || kind != nvm || s != r {
		t.Fatalf("in-place shrink = %#x on %v: %v", s, kind, err)
	}
	// No heap holds 16 MB: OOM, and the old block stays live.
	if _, _, err := mk.ReallocFallback(r, 16*units.MB); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("oversized realloc err = %v, want OOM", err)
	}
	if size, live := mk.Arena(nvm).SizeOf(r); !live || size != 6*units.MB {
		t.Fatalf("failed realloc left the old block live=%v at %d bytes", live, size)
	}
	if _, _, err := mk.ReallocFallback(0x1234, 10); !errors.Is(err, ErrBadFree) {
		t.Fatalf("foreign realloc err = %v, want ErrBadFree", err)
	}
}

func TestMemkindUnknownKind(t *testing.T) {
	mk, _ := NewMemkind(newTestSpace(), units.MB, units.MB)
	if _, err := mk.Malloc(Kind(42), 10); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestKindString(t *testing.T) {
	if KindDefault.String() != "default" || KindHBW.String() != "hbw" || Kind(7).String() != "kind(7)" {
		t.Fatal("Kind.String labels wrong")
	}
}

func BenchmarkArenaMallocFree(b *testing.B) {
	seg, _ := newTestSpace().AddSegment("bench", 64*units.MB, mem.TierDDR)
	a := NewArena(seg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := a.Malloc(4096)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(p); err != nil {
			b.Fatal(err)
		}
	}
}

func TestArenaExhaust(t *testing.T) {
	a := newTestArena(t, units.MB)
	p, _ := a.Malloc(100 * units.KB)
	consumed := a.Exhaust()
	if consumed <= 0 {
		t.Fatal("Exhaust consumed nothing")
	}
	if a.used != units.MB {
		t.Fatalf("used = %d after exhaust, want full segment", a.used)
	}
	if _, err := a.Malloc(64); !errors.Is(err, ErrOutOfMemory) {
		t.Fatal("allocation succeeded on exhausted arena")
	}
	// The pre-existing allocation still frees correctly.
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Exhausting an already-exhausted arena is a no-op.
	if a.Exhaust() != 0 && len(a.free) != 0 {
		t.Fatal("second exhaust should consume at most the freed block")
	}
}

func TestHBWAllocPenaltyBands(t *testing.T) {
	small := HBWAllocPenalty(256 * units.KB)
	band := HBWAllocPenalty(units.MB + 200*units.KB)
	big := HBWAllocPenalty(16 * units.MB)
	if band <= small || band <= big {
		t.Fatalf("penalty band not pathological: small=%d band=%d big=%d", small, band, big)
	}
	if HBWAllocPenalty(units.MB) != band {
		t.Fatal("1 MB boundary should be in the band")
	}
	if HBWAllocPenalty(2*units.MB) != big {
		t.Fatal("2 MB boundary should be out of the band")
	}
}

// owns reports whether addr is a live allocation of a.
func owns(a *Arena, addr uint64) bool {
	_, ok := a.live[addr]
	return ok
}

// CheckInvariants verifies internal consistency: the free list is
// sorted, coalesced, in-bounds, non-overlapping with live allocations,
// and free+used covers exactly the segment. Used by property tests.
func (a *Arena) CheckInvariants() error {
	var freeSum int64
	prevEnd := a.seg.Base
	for i, b := range a.free {
		if b.size <= 0 {
			return fmt.Errorf("free block %d has size %d", i, b.size)
		}
		if b.addr < prevEnd {
			return fmt.Errorf("free list unsorted or overlapping at block %d", i)
		}
		if i > 0 && a.free[i-1].addr+uint64(a.free[i-1].size) == b.addr {
			return fmt.Errorf("free blocks %d and %d not coalesced", i-1, i)
		}
		if b.addr < a.seg.Base || b.addr+uint64(b.size) > a.seg.End() {
			return fmt.Errorf("free block %d out of segment bounds", i)
		}
		prevEnd = b.addr + uint64(b.size)
		freeSum += b.size
	}
	var liveSum int64
	for _, s := range a.live {
		liveSum += s
	}
	if liveSum != a.used {
		return fmt.Errorf("used=%d but live allocations sum to %d", a.used, liveSum)
	}
	if freeSum+liveSum != a.seg.Size {
		return fmt.Errorf("free(%d)+live(%d) != segment size %d", freeSum, liveSum, a.seg.Size)
	}
	return nil
}
