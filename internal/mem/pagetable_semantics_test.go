package mem

import (
	"reflect"
	"testing"

	"repro/internal/units"
)

// These tests pin the observable SetRange/TierOf semantics —
// in particular the coarse/fine shadowing rules — so the page-table
// representation can be swapped (map, radix, anything) without any
// behavioral drift. They were written against the original map-backed
// implementation and must keep passing verbatim.

// pg is untyped so it converts to both address (uint64) and size
// (int64) positions; the compile-time assertion pins it to the real
// page size.
const pg = 4096

var _ = [1]struct{}{}[pg-units.PageSize]

// TestSetRangeTierOfShadowing walks the full shadowing matrix: fine
// entries shadow coarse ranges, coarse ranges shadow the default, and
// a fine entry EQUAL to the default still shadows a covering coarse
// range (it must not be dropped, or the coarse tier would leak back).
func TestSetRangeTierOfShadowing(t *testing.T) {
	pt := NewPageTable(TierDDR)

	// Coarse segment [16p, 48p) on NVM, as AddSegment would bind it.
	if err := pt.SetCoarseRange(16*pg, 32*pg, TierNVM); err != nil {
		t.Fatal(err)
	}
	// Fine placement [20p, 24p) on MCDRAM inside the coarse range.
	pt.SetRange(20*pg, 4*pg, TierMCDRAM)
	// Fine placement [60p, 62p) on MCDRAM outside any coarse range.
	pt.SetRange(60*pg, 2*pg, TierMCDRAM)

	cases := []struct {
		name string
		addr uint64
		want TierID
	}{
		{"below everything", 0, TierDDR},
		{"coarse head", 16 * pg, TierNVM},
		{"fine inside coarse", 20 * pg, TierMCDRAM},
		{"fine inside coarse, mid-page", 21*pg + 123, TierMCDRAM},
		{"coarse after fine run", 24 * pg, TierNVM},
		{"coarse tail", 48*pg - 1, TierNVM},
		{"one past coarse", 48 * pg, TierDDR},
		{"fine outside coarse", 60 * pg, TierMCDRAM},
		{"past fine outside", 62 * pg, TierDDR},
	}
	for _, c := range cases {
		if got := pt.TierOf(c.addr); got != c.want {
			t.Errorf("%s: TierOf(%#x) = %v, want %v", c.name, c.addr, got, c.want)
		}
	}

	// Clearing a sub-range back to the default INSIDE the coarse range
	// must shadow the coarse tier with explicit default-tier entries...
	pt.SetRange(20*pg, 4*pg, pt.def)
	if got := pt.TierOf(21 * pg); got != TierDDR {
		t.Errorf("cleared page inside coarse = %v, want default (shadow entry)", got)
	}
	// ...and those shadow pages count in PlacedBytes under the default
	// tier, as the map-backed implementation always did.
	placed := pt.PlacedBytes()
	if placed[TierDDR] != 4*pg {
		t.Errorf("PlacedBytes[default] = %d, want %d shadow bytes", placed[TierDDR], 4*pg)
	}

	// Clearing OUTSIDE any coarse range removes the entries entirely.
	pt.SetRange(60*pg, 2*pg, pt.def)
	if got := pt.TierOf(60 * pg); got != TierDDR {
		t.Errorf("cleared free-standing page = %v, want default", got)
	}
	placed = pt.PlacedBytes()
	if placed[TierMCDRAM] != 0 {
		t.Errorf("PlacedBytes[MCDRAM] = %d after clearing, want 0", placed[TierMCDRAM])
	}
}

// TestSetRangePartialPagesPlacedWhole pins the page-granularity rule:
// partial pages are placed whole, and a one-byte range still claims its
// page.
func TestSetRangePartialPagesPlacedWhole(t *testing.T) {
	pt := NewPageTable(TierDDR)
	pt.SetRange(10*pg+100, 1, TierMCDRAM)
	if got := pt.TierOf(10 * pg); got != TierMCDRAM {
		t.Errorf("page head = %v, want MCDRAM", got)
	}
	if got := pt.TierOf(11*pg - 1); got != TierMCDRAM {
		t.Errorf("page tail = %v, want MCDRAM", got)
	}
	if got := pt.TierOf(11 * pg); got != TierDDR {
		t.Errorf("next page = %v, want default", got)
	}
	// A range straddling a page boundary claims both pages.
	pt.SetRange(20*pg-1, 2, TierNVM)
	if pt.TierOf(19*pg) != TierNVM || pt.TierOf(20*pg) != TierNVM {
		t.Error("straddling range did not claim both pages")
	}
	// Non-positive sizes are ignored.
	pt.SetRange(30*pg, 0, TierNVM)
	pt.SetRange(31*pg, -5, TierNVM)
	if pt.TierOf(30*pg) != TierDDR || pt.TierOf(31*pg) != TierDDR {
		t.Error("non-positive SetRange sizes must be no-ops")
	}
}

// TestSetRangeOverwriteAndExtents pins re-placement (last write wins)
// and the coalesced extent view over a mixed layout.
func TestSetRangeOverwriteAndExtents(t *testing.T) {
	pt := NewPageTable(TierDDR)
	pt.SetRange(100*pg, 8*pg, TierMCDRAM)
	pt.SetRange(104*pg, 2*pg, TierNVM) // overwrite the middle
	want := []extent{
		{Start: 100 * pg, Size: 4 * pg, Tier: TierMCDRAM},
		{Start: 104 * pg, Size: 2 * pg, Tier: TierNVM},
		{Start: 106 * pg, Size: 2 * pg, Tier: TierMCDRAM},
	}
	if got := pt.extents(); !reflect.DeepEqual(got, want) {
		t.Errorf("extents() = %+v, want %+v", got, want)
	}
	placed := pt.PlacedBytes()
	if placed[TierMCDRAM] != 6*pg || placed[TierNVM] != 2*pg {
		t.Errorf("PlacedBytes = %v", placed)
	}
	// Reset drops everything, fine and coarse.
	if err := pt.SetCoarseRange(500*pg, 10*pg, TierNVM); err != nil {
		t.Fatal(err)
	}
	pt.ResetTo(pt.def)
	if pt.TierOf(100*pg) != TierDDR || pt.TierOf(500*pg) != TierDDR {
		t.Error("Reset did not drop placements")
	}
	if pt.extents() != nil {
		t.Error("extents after Reset should be nil")
	}
}

// TestTierOfZeroAllocs pins the radix lookup's allocation-freedom:
// TierOf runs once per LLC miss, across radix hits, coarse hits and
// default fallthrough alike.
func TestTierOfZeroAllocs(t *testing.T) {
	pt := NewPageTable(TierDDR)
	if err := pt.SetCoarseRange(1<<32, 64*units.MB, TierNVM); err != nil {
		t.Fatal(err)
	}
	pt.SetRange(2<<32, 8*units.MB, TierMCDRAM)
	probes := []uint64{
		1<<32 + 4096,     // coarse hit
		2<<32 + 4096,     // radix hit
		3 << 32,          // default fallthrough
		1<<32 + 32*1024,  // coarse again (fast-path cache)
		2<<32 + 128*1024, // radix again
	}
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		_ = pt.TierOf(probes[i%len(probes)])
		i++
	})
	if allocs != 0 {
		t.Errorf("TierOf allocates %.1f times per lookup, want 0", allocs)
	}
}

// TestSetRangeZeroAllocsSteadyState pins that re-placing an
// already-populated range (the online placer's epoch migrations) does
// not allocate once the radix leaves exist.
func TestSetRangeZeroAllocsSteadyState(t *testing.T) {
	pt := NewPageTable(TierDDR)
	if err := pt.SetCoarseRange(1<<32, 64*units.MB, TierDDR); err != nil {
		t.Fatal(err)
	}
	pt.SetRange(1<<32, 16*units.MB, TierMCDRAM) // populate leaves
	flip := TierMCDRAM
	allocs := testing.AllocsPerRun(100, func() {
		if flip == TierMCDRAM {
			flip = TierNVM
		} else {
			flip = TierMCDRAM
		}
		pt.SetRange(1<<32, 16*units.MB, flip)
	})
	if allocs != 0 {
		t.Errorf("steady-state SetRange allocates %.1f times, want 0", allocs)
	}
}

// TestTierOfInterleavedCoarseRanges exercises lookups that bounce
// between several coarse ranges and the gaps between them — the access
// pattern a multi-segment address space produces — so any fast-path
// caching of the last-hit range is forced through its miss paths.
func TestTierOfInterleavedCoarseRanges(t *testing.T) {
	pt := NewPageTable(TierDDR)
	segs := []struct {
		start uint64
		tier  TierID
	}{
		{1000 * pg, TierDDR},
		{2000 * pg, TierMCDRAM},
		{3000 * pg, TierNVM},
		{4000 * pg, TierHBM},
	}
	for _, s := range segs {
		if err := pt.SetCoarseRange(s.start, 100*pg, s.tier); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		for i := len(segs) - 1; i >= 0; i-- {
			s := segs[i]
			if got := pt.TierOf(s.start + 50*pg); got != s.tier {
				t.Fatalf("round %d: TierOf in segment %d = %v, want %v", round, i, got, s.tier)
			}
			if got := pt.TierOf(s.start + 100*pg); got != TierDDR {
				t.Fatalf("round %d: gap after segment %d = %v, want default", round, i, got)
			}
		}
	}
	// Re-binding an identical coarse range replaces its tier in place.
	if err := pt.SetCoarseRange(2000*pg, 100*pg, TierNVM); err != nil {
		t.Fatal(err)
	}
	if got := pt.TierOf(2050 * pg); got != TierNVM {
		t.Errorf("re-bound coarse range = %v, want NVM", got)
	}
	// Overlapping ranges are still rejected.
	if err := pt.SetCoarseRange(2050*pg, 100*pg, TierHBM); err == nil {
		t.Error("overlapping coarse range must be rejected")
	}
}

// extent describes a contiguous run of pages on one tier.
type extent struct {
	Start uint64 // first byte
	Size  int64  // bytes
	Tier  TierID
}

// extents returns the explicitly placed regions as sorted, coalesced
// extents, read straight off the radix leaves. The radix is
// scanned in page order, so runs fall out naturally: a new extent
// starts wherever the tier changes or a gap appears.
func (pt *PageTable) extents() []extent {
	if pt.entries == 0 {
		return nil
	}
	var out []extent
	var run *extent
	for li, leaf := range pt.leaves {
		if leaf == nil {
			run = nil
			continue
		}
		base := uint64(li) << leafBits
		for i, v := range leaf {
			if v == 0 {
				run = nil
				continue
			}
			p := base + uint64(i)
			t := TierID(v - 1)
			if run != nil && run.Tier == t && run.Start+uint64(run.Size) == p*uint64(units.PageSize) {
				run.Size += units.PageSize
				continue
			}
			out = append(out, extent{Start: p * uint64(units.PageSize), Size: units.PageSize, Tier: t})
			run = &out[len(out)-1]
		}
	}
	return out
}
