package cache

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/units"
	"repro/internal/xrand"
)

// hotPathFixture builds a flat-mode hierarchy over a page table shaped
// like a real run's: coarse segment bindings for the heaps plus a
// page-granular placed range inside the fast heap — so Access exercises
// the radix lookup, the coarse fast path AND the default fallthrough.
func hotPathFixture(t testing.TB) (*Hierarchy, *mem.Machine, []uint64) {
	t.Helper()
	m := mem.DefaultKNL()
	pt := mem.NewPageTable(mem.TierDDR)
	const seg = 256 << 20 // untyped: both address arithmetic and sizes
	ddrBase := uint64(1) << 32
	hbwBase := uint64(2) << 32
	if err := pt.SetCoarseRange(ddrBase, seg, mem.TierDDR); err != nil {
		t.Fatal(err)
	}
	if err := pt.SetCoarseRange(hbwBase, seg, mem.TierMCDRAM); err != nil {
		t.Fatal(err)
	}
	// A 16 MB page-granular promotion inside the DDR segment (what an
	// online migration or partitioned placement produces).
	pt.SetRange(ddrBase+64<<20, 16*units.MB, mem.TierMCDRAM)

	h, err := NewHierarchy(&m, pt)
	if err != nil {
		t.Fatal(err)
	}
	// A mixed reference stream: streaming through both segments plus
	// random gathers, hitting radix pages, coarse pages and LLC alike.
	rng := xrand.New(7)
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		switch i % 4 {
		case 0:
			addrs[i] = ddrBase + uint64(i*64)%seg
		case 1:
			addrs[i] = hbwBase + uint64(i*64)%seg
		case 2:
			addrs[i] = ddrBase + 64<<20 + rng.Uint64n(16<<20)&^63
		default:
			addrs[i] = ddrBase + rng.Uint64n(seg)&^63
		}
	}
	return h, &m, addrs
}

// TestHierarchyAccessZeroAllocs pins the central claim of the hot-path
// overhaul: walking a reference through L1/LLC/page-table/traffic does
// not allocate in steady state.
func TestHierarchyAccessZeroAllocs(t *testing.T) {
	h, _, addrs := hotPathFixture(t)
	// Warm up caches and counters.
	for _, a := range addrs {
		h.Access(a)
	}
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		h.Access(addrs[i&(len(addrs)-1)])
		i++
	})
	if allocs != 0 {
		t.Errorf("Hierarchy.Access allocates %.1f times per call, want 0", allocs)
	}
}

// TestAccessWithDisabledRecorderZeroAllocs pins the flight recorder's
// zero-overhead contract where it matters most: a run that carries a
// disabled (nil) recorder must walk the access path — and skip its
// event emission — without a single allocation. This is the guard the
// observability layer must never break; if it fires, an emit path is
// letting an event escape to the heap before the nil check.
func TestAccessWithDisabledRecorderZeroAllocs(t *testing.T) {
	h, _, addrs := hotPathFixture(t)
	for _, a := range addrs {
		h.Access(a)
	}
	var rec *obs.Recorder // every untraced run carries exactly this
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		h.Access(addrs[i&(len(addrs)-1)])
		rec.EmitGate(obs.GateEvent{Epoch: i, Decision: obs.DecisionAccept, Moves: 1})
		rec.EmitEpoch(obs.EpochEvent{Epoch: i, Refs: int64(i)})
		i++
	})
	if allocs != 0 {
		t.Errorf("Access + disabled recorder allocates %.1f times per call, want 0", allocs)
	}
}

// TestDrainPhaseZeroAllocs pins the Traffic.Reset fix: draining a phase
// must reuse the per-tier counters in place instead of reallocating
// them — a phase drain runs at every phase boundary of every simulated
// run.
func TestDrainPhaseZeroAllocs(t *testing.T) {
	h, m, addrs := hotPathFixture(t)
	for _, a := range addrs {
		h.Access(a)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		h.Access(addrs[0])
		h.DrainPhase(m.Cores)
	})
	if allocs != 0 {
		t.Errorf("DrainPhase allocates %.1f times per drain, want 0", allocs)
	}
}

// BenchmarkAccessPath measures the innermost simulation loop — one
// Access per simulated reference over the mixed stream — and reports
// refs/sec — the per-reference oracle path, not the batched one the
// engine runs (BenchmarkAccessRun).
func BenchmarkAccessPath(b *testing.B) {
	h, m, addrs := hotPathFixture(b)
	mask := len(addrs) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(addrs[i&mask])
		if i&0xfffff == 0xfffff {
			h.DrainPhase(m.Cores) // keep accumulators phase-shaped
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}
