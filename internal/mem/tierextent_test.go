package mem

import "testing"

// These tests pin the TierExtent contract the batched access path
// builds on: for any addr, TierExtent(addr) = (tier, start, end) with
// start ≤ addr < end, tier == TierOf(addr), and TierOf constant over
// the whole [start, end) at the current Gen. The fuzz harness
// (FuzzPageTableVsMap) checks the same contract against the reference
// model on arbitrary op programs; the cases here are the deterministic
// shapes the simulator actually produces: empty tables, segment coarse
// ranges, promoted page runs, and runs long enough to hit the scan
// cap. start is conservative — the probe's own page (clipped by
// byte-granular coarse edges), not the leftmost point of the
// constant-tier region — because the batched consumer only streams
// forward from the missed address.

func checkExtent(t *testing.T, pt *PageTable, addr uint64, wantTier TierID, wantStart, wantEnd uint64) {
	t.Helper()
	tier, start, end := pt.TierExtent(addr)
	if tier != wantTier || start != wantStart || end != wantEnd {
		t.Fatalf("TierExtent(%#x) = (%d, %#x, %#x), want (%d, %#x, %#x)",
			addr, tier, start, end, wantTier, wantStart, wantEnd)
	}
	if got := pt.TierOf(addr); got != tier {
		t.Fatalf("TierExtent(%#x) tier %d disagrees with TierOf %d", addr, tier, got)
	}
}

func TestTierExtentEmptyTable(t *testing.T) {
	pt := NewPageTable(TierDDR)
	// No overrides, no coarse ranges: one extent covers everything.
	checkExtent(t, pt, 0, TierDDR, 0, ^uint64(0))
	checkExtent(t, pt, 123456789, TierDDR, 123456789&^(pg-1), ^uint64(0))
}

func TestTierExtentCoarseRanges(t *testing.T) {
	pt := NewPageTable(TierDDR)
	if err := pt.SetCoarseRange(16*pg, 32*pg, TierMCDRAM); err != nil {
		t.Fatal(err)
	}
	if err := pt.SetCoarseRange(64*pg, 16*pg, TierNVM); err != nil {
		t.Fatal(err)
	}
	// Before the first range: default tier up to its start.
	checkExtent(t, pt, 0, TierDDR, 0, 16*pg)
	// Inside each range: the range itself.
	checkExtent(t, pt, 16*pg, TierMCDRAM, 16*pg, 48*pg)
	checkExtent(t, pt, 47*pg+4095, TierMCDRAM, 47*pg, 48*pg)
	checkExtent(t, pt, 70*pg, TierNVM, 70*pg, 80*pg)
	// In the gap: default, bounded by both neighbours.
	checkExtent(t, pt, 50*pg, TierDDR, 50*pg, 64*pg)
	// Past the last range: default to the end of the address space.
	checkExtent(t, pt, 100*pg, TierDDR, 100*pg, ^uint64(0))
}

func TestTierExtentByteGranularCoarseEdges(t *testing.T) {
	// Coarse ranges are byte-granular: a range starting mid-page must
	// clip the extent so TierOf stays constant inside it.
	pt := NewPageTable(TierDDR)
	if err := pt.SetCoarseRange(10*pg+512, 4*pg, TierMCDRAM); err != nil {
		t.Fatal(err)
	}
	checkExtent(t, pt, 10*pg, TierDDR, 10*pg, 10*pg+512)
	checkExtent(t, pt, 10*pg+512, TierMCDRAM, 10*pg+512, 14*pg+512)
	checkExtent(t, pt, 14*pg+512, TierDDR, 14*pg+512, ^uint64(0))
	checkExtent(t, pt, 20*pg, TierDDR, 20*pg, ^uint64(0))
}

func TestTierExtentOverrideRuns(t *testing.T) {
	pt := NewPageTable(TierDDR)
	if err := pt.SetCoarseRange(0, 256*pg, TierDDR); err != nil {
		t.Fatal(err)
	}
	// A promoted object: 8 contiguous MCDRAM pages inside the segment.
	pt.SetRange(32*pg, 8*pg, TierMCDRAM)
	// The override run is one extent.
	checkExtent(t, pt, 32*pg, TierMCDRAM, 32*pg, 40*pg)
	checkExtent(t, pt, 39*pg, TierMCDRAM, 39*pg, 40*pg)
	// Clean pages before the run stop at its first page.
	checkExtent(t, pt, 0, TierDDR, 0, 32*pg)
	// Clean pages after the run extend to the next override or forever
	// (capped — see TestTierExtentScanCap).
	tier, start, end := pt.TierExtent(40 * pg)
	if tier != TierDDR || start != 40*pg || end <= 40*pg {
		t.Fatalf("TierExtent after run = (%d, %#x, %#x)", tier, start, end)
	}
	// Adjacent runs of different tiers split at the tier change.
	pt.SetRange(40*pg, 4*pg, TierNVM)
	checkExtent(t, pt, 33*pg, TierMCDRAM, 33*pg, 40*pg)
	checkExtent(t, pt, 41*pg, TierNVM, 41*pg, 44*pg)
}

func TestTierExtentScanCap(t *testing.T) {
	// The run scan is capped at maxExtentLeaves leaves so one query
	// stays O(1)-ish; a capped extent is conservative (shorter), never
	// wrong. Build an override run longer than the cap and check the
	// returned extent stops at the leaf limit while remaining valid.
	pt := NewPageTable(TierDDR)
	runPages := int64((maxExtentLeaves + 1) * leafSize)
	pt.SetRange(0, runPages*pg, TierMCDRAM)
	tier, start, end := pt.TierExtent(0)
	if tier != TierMCDRAM || start != 0 {
		t.Fatalf("TierExtent(0) = (%d, %#x, %#x)", tier, start, end)
	}
	capEnd := uint64(maxExtentLeaves*leafSize) * pg
	if end != capEnd {
		t.Fatalf("capped extent end = %#x, want %#x", end, capEnd)
	}
	// Every page of the returned extent really is MCDRAM.
	for p := start; p < end; p += pg * 64 {
		if got := pt.TierOf(p); got != TierMCDRAM {
			t.Fatalf("TierOf(%#x) = %d inside MCDRAM extent", p, got)
		}
	}
}

func TestTierExtentGenInvalidation(t *testing.T) {
	// The batched miss path caches extents keyed by Gen; this pins that
	// every mutation really bumps Gen so stale extents cannot survive.
	pt := NewPageTable(TierDDR)
	g := pt.Gen()
	pt.SetRange(0, 4*pg, TierMCDRAM)
	if pt.Gen() == g {
		t.Fatal("SetRange did not bump Gen")
	}
	g = pt.Gen()
	if err := pt.SetCoarseRange(100*pg, 10*pg, TierNVM); err != nil {
		t.Fatal(err)
	}
	if pt.Gen() == g {
		t.Fatal("SetCoarseRange did not bump Gen")
	}
	g = pt.Gen()
	pt.SetRange(0, 4*pg, pt.def)
	if pt.Gen() == g {
		t.Fatal("clearing a range did not bump Gen")
	}
	g = pt.Gen()
	pt.ResetTo(TierDDR)
	if pt.Gen() == g {
		t.Fatal("ResetTo did not bump Gen")
	}
}

func TestResetToMatchesFresh(t *testing.T) {
	// Pooled sweep workers reuse one PageTable via ResetTo; a reset
	// table must answer every query exactly like a fresh one.
	pt := NewPageTable(TierDDR)
	if err := pt.SetCoarseRange(0, 256*pg, TierDDR); err != nil {
		t.Fatal(err)
	}
	pt.SetRange(8*pg, 16*pg, TierMCDRAM)
	pt.TierOf(9 * pg) // warm the last-hit cache
	pt.ResetTo(TierNVM)

	fresh := NewPageTable(TierNVM)
	probes := []uint64{0, 8 * pg, 9*pg + 17, 24 * pg, 255 * pg, 1 << 40}
	for _, a := range probes {
		if got, want := pt.TierOf(a), fresh.TierOf(a); got != want {
			t.Fatalf("reset TierOf(%#x) = %d, fresh says %d", a, got, want)
		}
		tier, start, end := pt.TierExtent(a)
		ftier, fstart, fend := fresh.TierExtent(a)
		if tier != ftier || start != fstart || end != fend {
			t.Fatalf("reset TierExtent(%#x) = (%d,%#x,%#x), fresh (%d,%#x,%#x)",
				a, tier, start, end, ftier, fstart, fend)
		}
	}
	if pt.entries != 0 {
		t.Fatalf("reset table has %d overrides", pt.entries)
	}
	if got := pt.PlacedBytes(); len(got) != 0 {
		t.Fatalf("reset table PlacedBytes = %v", got)
	}
}
