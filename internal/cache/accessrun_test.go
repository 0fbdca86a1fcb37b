package cache

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/units"
	"repro/internal/xrand"
)

// Differential property suite for the batched access path: AccessRun /
// AccessRandomRun must be BIT-identical to the per-reference Access
// loop they replace — same cache hit/miss counters, same drained
// cycles, same per-tier traffic, same OnLLCMiss callback sequence
// (addresses AND reconstructed stream indices). The suite drives both
// paths over fresh hierarchies for every touch pattern of the engine,
// in flat and cache mode, across placement edge cases (hot-fraction
// boundaries, sub-line spans, strides wider than the span, placement
// mutations between phases) and fails on the first diverging counter.

// miss records one OnLLCMiss callback: the address plus the
// reconstructed per-reference stream index (base + intra-call refIdx).
type miss struct {
	addr uint64
	idx  int64
}

// hierState snapshots every observable counter of a hierarchy.
type hierState struct {
	l1Hits, l1Misses   int64
	llcHits, llcMisses int64
	mcHits, mcMisses   int64
	cycles             units.Cycles
	bytes              map[mem.TierID]int64
	visits             [4]int64
}

func snapshot(h *Hierarchy, cores int) hierState {
	pend := h.PendingTraffic()
	s := hierState{
		l1Hits:    h.L1().Hits(),
		l1Misses:  h.L1().Misses(),
		llcHits:   h.LLC().Hits(),
		llcMisses: h.LLC().Misses(),
		bytes:     pend.BytesByTier(),
	}
	for t := mem.TierID(0); t < 4; t++ {
		s.visits[t] = pend.Visits(t)
	}
	if mc := h.MCDRAMCache(); mc != nil {
		s.mcHits, s.mcMisses = mc.Hits(), mc.Misses()
	}
	s.cycles = h.DrainPhase(cores)
	return s
}

func diffStates(t *testing.T, label string, got, want hierState) {
	t.Helper()
	if got.l1Hits != want.l1Hits || got.l1Misses != want.l1Misses {
		t.Errorf("%s: L1 hits/misses = %d/%d, per-ref %d/%d", label, got.l1Hits, got.l1Misses, want.l1Hits, want.l1Misses)
	}
	if got.llcHits != want.llcHits || got.llcMisses != want.llcMisses {
		t.Errorf("%s: LLC hits/misses = %d/%d, per-ref %d/%d", label, got.llcHits, got.llcMisses, want.llcHits, want.llcMisses)
	}
	if got.mcHits != want.mcHits || got.mcMisses != want.mcMisses {
		t.Errorf("%s: MCDRAM$ hits/misses = %d/%d, per-ref %d/%d", label, got.mcHits, got.mcMisses, want.mcHits, want.mcMisses)
	}
	if got.cycles != want.cycles {
		t.Errorf("%s: drained cycles = %d, per-ref %d", label, got.cycles, want.cycles)
	}
	if len(got.bytes) != len(want.bytes) {
		t.Errorf("%s: traffic tiers = %v, per-ref %v", label, got.bytes, want.bytes)
	}
	for tier, b := range want.bytes {
		if got.bytes[tier] != b {
			t.Errorf("%s: tier %d bytes = %d, per-ref %d", label, tier, got.bytes[tier], b)
		}
	}
	if got.visits != want.visits {
		t.Errorf("%s: tier visits = %v, per-ref %v", label, got.visits, want.visits)
	}
}

// refStridedRun is the per-reference loop AccessRun replaces, kept
// verbatim as the differential oracle.
func refStridedRun(h *Hierarchy, base uint64, stride, span, refs int64) {
	if refs <= 0 || span <= 0 {
		return
	}
	step := stride % span
	off := int64(0)
	for i := int64(0); i < refs; i++ {
		h.Access(base + uint64(off))
		off += step
		if off >= span {
			off -= span
		}
	}
}

// refRandomRun is the per-reference oracle of AccessRandomRun.
func refRandomRun(h *Hierarchy, base uint64, span, refs int64, rng *xrand.RNG) {
	if refs <= 0 || span <= 0 {
		return
	}
	for i := int64(0); i < refs; i++ {
		h.Access(base + (rng.Uint64n(uint64(span)) &^ 7))
	}
}

// runPattern drives one touch pattern over h via the batched path when
// batched is true, the per-reference oracle otherwise. phase counts
// OnLLCMiss stream indices from phaseBase, as the engine does.
type patternSpec struct {
	name         string
	base         uint64
	stride, span int64
	random       bool
}

func drive(h *Hierarchy, p patternSpec, refs int64, seed uint64, batched bool, phaseBase int64, misses *[]miss) {
	h.OnLLCMiss = func(a uint64, refIdx int64) {
		*misses = append(*misses, miss{addr: a, idx: phaseBase + refIdx})
	}
	if p.random {
		rng := xrand.New(seed)
		if batched {
			h.AccessRandomRun(p.base, p.span, refs, rng)
		} else {
			refRandomRun(h, p.base, p.span, refs, rng)
		}
		return
	}
	if batched {
		h.AccessRun(p.base, p.stride, p.span, refs)
	} else {
		refStridedRun(h, p.base, p.stride, p.span, refs)
	}
}

// Oracle side: per-ref Access reports refIdx 0 for every miss, so the
// engine-equivalent index of the i-th reference must be counted by the
// caller. refOracleMisses replays the pattern per-ref while tracking
// the true stream index.
func driveOracle(h *Hierarchy, p patternSpec, refs int64, seed uint64, phaseBase int64, misses *[]miss) {
	i := int64(0)
	h.OnLLCMiss = func(a uint64, _ int64) {
		*misses = append(*misses, miss{addr: a, idx: phaseBase + i})
	}
	if p.random {
		rng := xrand.New(seed)
		for ; i < refs; i++ {
			h.Access(p.base + (rng.Uint64n(uint64(p.span)) &^ 7))
		}
		return
	}
	step := p.stride % p.span
	off := int64(0)
	for ; i < refs; i++ {
		h.Access(p.base + uint64(off))
		off += step
		if off >= p.span {
			off -= p.span
		}
	}
}

func TestAccessRunMatchesPerRef(t *testing.T) {
	const refs = 20000
	line := int64(64)
	patterns := []patternSpec{
		// Sequential object scan: the dominant engine pattern. Stride
		// chosen so several refs share each line.
		{name: "seq-dense", base: 1 << 32, stride: 16, span: 512 * units.KB},
		// Exact line stride: every ref crosses a line.
		{name: "seq-line", base: 1 << 32, stride: line, span: 256 * units.KB},
		// minife-like wide stride: stride larger than a page, so the
		// per-page run cache of the per-ref path never helps and the
		// wide-extent path does all the work.
		{name: "seq-widestride", base: 1 << 32, stride: 3 * units.PageSize, span: 8 * units.MB},
		// Stride not a divisor of span: wrap lands mid-line.
		{name: "seq-ragged", base: 1<<32 + 24, stride: 88, span: 100000},
		// Sub-line span: all refs hit one line after the first.
		{name: "span-lt-line", base: 1 << 32, stride: 8, span: 48},
		// Stride ≥ span: step reduces modulo span.
		{name: "stride-ge-span", base: 1 << 32, stride: 7 * units.MB, span: 64 * units.KB},
		// Zero stride: every ref touches the same address.
		{name: "stride-zero", base: 1<<32 + 4040, stride: 0, span: 1 * units.MB},
		// Random gather over a working set larger than the LLC.
		{name: "random-large", base: 1 << 32, span: 4 * units.MB, random: true},
		// Random gather within one line (span < line, all hits).
		{name: "random-subline", base: 1 << 32, span: 64, random: true},
	}
	placements := []struct {
		name string
		mode mem.CacheModeKind
		hot  float64 // leading fraction of the span promoted to MCDRAM
	}{
		{name: "flat-all-ddr", mode: mem.FlatMode, hot: 0},
		{name: "flat-hot-half", mode: mem.FlatMode, hot: 0.5},
		{name: "flat-all-hot", mode: mem.FlatMode, hot: 1},
		{name: "cache-mode", mode: mem.CacheMode, hot: 0},
	}
	for _, pl := range placements {
		for _, p := range patterns {
			t.Run(pl.name+"/"+p.name, func(t *testing.T) {
				m := testMachine()
				m.Mode = pl.mode
				build := func() (*Hierarchy, *mem.PageTable) {
					pt := mem.NewPageTable(mem.TierDDR)
					// The engine binds heap segments as coarse ranges;
					// segment bounds are page-aligned.
					spanPages := (p.span + units.PageSize - 1) / units.PageSize * units.PageSize
					if err := pt.SetCoarseRange(p.base, spanPages+units.PageSize, mem.TierDDR); err != nil {
						t.Fatal(err)
					}
					if pl.hot > 0 {
						hotBytes := int64(float64(p.span) * pl.hot)
						pt.SetRange(p.base, hotBytes, mem.TierMCDRAM)
					}
					h, err := NewHierarchy(&m, pt)
					if err != nil {
						t.Fatal(err)
					}
					return h, pt
				}
				seed := uint64(0xfeed + len(p.name))

				hBatch, ptBatch := build()
				hRef, ptRef := build()
				var mBatch, mRef []miss

				// Phase 1.
				drive(hBatch, p, refs, seed, true, 0, &mBatch)
				driveOracle(hRef, p, refs, seed, 0, &mRef)
				sBatch := snapshot(hBatch, 4)
				sRef := snapshot(hRef, 4)
				diffStates(t, "phase1", sBatch, sRef)

				// Mutate placement between phases: a migration bumps Gen,
				// so any cached extent must be dropped (flat mode only —
				// cache mode ignores the table).
				if pl.mode == mem.FlatMode {
					ptBatch.SetRange(p.base, 4*units.PageSize, mem.TierNVM)
					ptRef.SetRange(p.base, 4*units.PageSize, mem.TierNVM)
				}

				// Phase 2 continues the stream index where phase 1 ended.
				drive(hBatch, p, refs/2, seed^1, true, refs, &mBatch)
				driveOracle(hRef, p, refs/2, seed^1, refs, &mRef)
				diffStates(t, "phase2", snapshot(hBatch, 4), snapshot(hRef, 4))

				if len(mBatch) != len(mRef) {
					t.Fatalf("OnLLCMiss count = %d, per-ref %d", len(mBatch), len(mRef))
				}
				for i := range mBatch {
					if mBatch[i] != mRef[i] {
						t.Fatalf("OnLLCMiss[%d] = {%#x, %d}, per-ref {%#x, %d}",
							i, mBatch[i].addr, mBatch[i].idx, mRef[i].addr, mRef[i].idx)
					}
				}
			})
		}
	}
}

// TestAccessRunDegenerate pins the no-op edges: zero or negative refs
// and non-positive spans must leave the hierarchy untouched.
func TestAccessRunDegenerate(t *testing.T) {
	m := testMachine()
	pt := mem.NewPageTable(mem.TierDDR)
	h, err := NewHierarchy(&m, pt)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	h.AccessRun(0, 64, 4096, 0)
	h.AccessRun(0, 64, 0, 100)
	h.AccessRun(0, 64, -5, 100)
	h.AccessRandomRun(0, 4096, -1, rng)
	h.AccessRandomRun(0, 0, 100, rng)
	if h.L1().Accesses() != 0 || h.LLCAccesses() != 0 || h.DrainPhase(1) != 0 {
		t.Fatal("degenerate runs touched the hierarchy")
	}
}

// TestCacheModeMissCharge pins the exact cache-mode miss charge the
// Hierarchy comments promise: a miss in the MCDRAM memory-side cache
// moves the demand line across DDR, charges a quarter line of average
// fill/writeback overhead on DDR, and consumes one line of MCDRAM fill
// bandwidth; a front-cache hit charges one MCDRAM line only.
func TestCacheModeMissCharge(t *testing.T) {
	m := testMachine()
	m.Mode = mem.CacheMode
	pt := mem.NewPageTable(mem.TierDDR)
	h, err := NewHierarchy(&m, pt)
	if err != nil {
		t.Fatal(err)
	}
	line := m.LineSize

	// First touch: L1/LLC miss, MCDRAM front-cache miss.
	res := h.Access(1 << 20)
	if res.Level != LevelMemory || res.Tier != mem.TierDDR {
		t.Fatalf("cold miss resolved to %v/%v", res.Level, res.Tier)
	}
	tr := h.PendingTraffic()
	if got, want := tr.Bytes(mem.TierDDR), line+line/4; got != want {
		t.Errorf("DDR bytes after miss = %d, want line+line/4 = %d", got, want)
	}
	if got := tr.Bytes(mem.TierMCDRAM); got != line {
		t.Errorf("MCDRAM fill bytes after miss = %d, want %d", got, line)
	}

	// Same page, different line: front cache is page-granular, so this
	// hits MCDRAM$ — one MCDRAM line, no DDR traffic.
	h.DrainPhase(1)
	res = h.Access(1<<20 + uint64(line))
	if res.Level != LevelMCDRAMCache {
		t.Fatalf("page-sibling access resolved to %v", res.Level)
	}
	tr = h.PendingTraffic()
	if got := tr.Bytes(mem.TierDDR); got != 0 {
		t.Errorf("DDR bytes after front-cache hit = %d, want 0", got)
	}
	if got := tr.Bytes(mem.TierMCDRAM); got != line {
		t.Errorf("MCDRAM bytes after front-cache hit = %d, want %d", got, line)
	}
}

// TestPendingTrafficIsSnapshot pins that PendingTraffic returns a
// detached copy: mutating it must not change what DrainPhase charges,
// and draining must not retroactively zero an already-taken snapshot.
func TestPendingTrafficIsSnapshot(t *testing.T) {
	m := testMachine()
	pt := mem.NewPageTable(mem.TierDDR)
	h, err := NewHierarchy(&m, pt)
	if err != nil {
		t.Fatal(err)
	}
	h.Access(1 << 21)
	snap := h.PendingTraffic()
	before := snap.Bytes(mem.TierDDR)
	if before == 0 {
		t.Fatal("miss produced no DDR traffic")
	}

	// Corrupt the snapshot, then drain: the charge must be computed
	// from the hierarchy's own accumulator, not the snapshot.
	snap.Add(mem.TierDDR, 1<<40)
	clean, _ := NewHierarchy(&m, mem.NewPageTable(mem.TierDDR))
	clean.Access(1 << 21)
	if got, want := h.DrainPhase(2), clean.DrainPhase(2); got != want {
		t.Errorf("drained cycles = %d after snapshot mutation, want %d", got, want)
	}

	// The snapshot survives the drain.
	if got := snap.Bytes(mem.TierDDR); got != before+1<<40 {
		t.Errorf("snapshot bytes = %d after drain, want %d", got, before+1<<40)
	}
}

// BenchmarkAccessRun measures the batched access path per engine touch
// pattern — the inner loop of every simulated phase. CI runs these as
// a smoke; the perfbench fig4-sweep workload measures the end-to-end
// number.
func BenchmarkAccessRun(b *testing.B) {
	patterns := []patternSpec{
		{name: "seq-dense", base: 1 << 32, stride: 16, span: 1 * units.MB},
		{name: "seq-line", base: 1 << 32, stride: 64, span: 1 * units.MB},
		{name: "seq-widestride", base: 1 << 32, stride: 3 * units.PageSize, span: 16 * units.MB},
		{name: "random", base: 1 << 32, span: 4 * units.MB, random: true},
	}
	for _, p := range patterns {
		b.Run(p.name, func(b *testing.B) {
			m := mem.DefaultKNL()
			pt := mem.NewPageTable(mem.TierDDR)
			if err := pt.SetCoarseRange(p.base, 32*units.MB, mem.TierDDR); err != nil {
				b.Fatal(err)
			}
			h, err := NewHierarchy(&m, pt)
			if err != nil {
				b.Fatal(err)
			}
			rng := xrand.New(42)
			const chunk = 1 << 16
			b.SetBytes(8 * chunk) // rough: one 8-byte ref each
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p.random {
					h.AccessRandomRun(p.base, p.span, chunk, rng)
				} else {
					h.AccessRun(p.base, p.stride, p.span, chunk)
				}
				h.DrainPhase(4)
			}
			b.ReportMetric(float64(chunk)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
		})
	}
}
