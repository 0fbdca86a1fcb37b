package cache

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/pebs"
	"repro/internal/units"
	"repro/internal/xrand"
)

// Differential property suite for the batched access path: AccessRun /
// AccessRandomRun must be BIT-identical to the per-reference Access
// loop they replace — same cache hit/miss counters, same drained
// cycles, same per-tier traffic, same LLC-miss hook calls (addresses
// AND reconstructed stream indices, at hook periods from every miss to
// the PEBS default), same contents and LRU order in every cache set.
// The suite drives both paths over fresh hierarchies for every touch
// pattern of the engine and for call sequences aimed at the
// single-pass kernel and its saturated tail, in flat and cache mode,
// on a wide-way LLC and on a 48 KB/12-way L1 + 2 MB LLC, across
// placement edge cases (hot-fraction boundaries, sub-line spans,
// strides wider than the span, placement mutations between calls and
// inside a tail) and fails on the first diverging call; FuzzAccessRun
// drives it with arbitrary call sequences.

// miss records one LLC-miss hook call: the address plus the
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
		l1Hits:    h.l1.hits,
		l1Misses:  h.l1.Misses(),
		llcHits:   h.llc.hits,
		llcMisses: h.llc.Misses(),
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

func diffStates(t testing.TB, label string, got, want hierState) {
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

// patternSpec is one engine touch pattern.
type patternSpec struct {
	name         string
	base         uint64
	stride, span int64
	random       bool
	sampled      bool         // benchmarks: a PEBS sampler at the default period on the miss hook
	cacheMode    bool         // benchmarks: the MCDRAM front cache on (cache mode)
	alt          *patternSpec // benchmarks: a second object's single pass after each pass
}

// call is one batched access call of a differential call sequence.
type call struct {
	base         uint64
	stride, span int64
	refs         int64
	random       bool
	seed         uint64
	mutate       bool   // rebind four pages at base before the call (flat mode)
	pin          uint64 // if set, rebind four pages here to NVM before the call (flat mode)
}

// drive runs c through the batched walk.
func drive(h *Hierarchy, c call) {
	if c.random {
		h.AccessRandomRun(c.base, c.span, c.refs, xrand.New(c.seed))
		return
	}
	h.AccessRun(c.base, c.stride, c.span, c.refs)
}

// driveOracle runs c one reference at a time through the per-reference
// oracle Access. Access reports refIdx 0 for every miss, so it sets
// *cur to the stream index of each reference before walking it, for
// the oracle's hook to record.
func driveOracle(h *Hierarchy, c call, phaseBase int64, cur *int64) {
	if c.random {
		rng := xrand.New(c.seed)
		for i := int64(0); i < c.refs; i++ {
			*cur = phaseBase + i
			h.Access(c.base + (rng.Uint64n(uint64(c.span)) &^ 7))
		}
		return
	}
	step := c.stride % c.span
	off := int64(0)
	for i := int64(0); i < c.refs; i++ {
		*cur = phaseBase + i
		h.Access(c.base + uint64(off))
		off += step
		if off >= c.span {
			off -= c.span
		}
	}
}

// setRecency lists every set's tags from MRU to LRU (0 = empty way):
// the observable state of a SetAssoc. Which way holds a line is not
// observable, so the batched walk may place lines differently from the
// per-reference one but must agree on this list.
func setRecency(c *SetAssoc) []uint64 {
	out := make([]uint64, 0, len(c.tags))
	for s := 0; s <= int(c.setMask); s++ {
		ts := c.tags[s*c.ways : (s+1)*c.ways]
		if c.order == nil {
			out = append(out, ts...)
			continue
		}
		for o, w := c.order[s], 0; w < c.ways; o, w = o>>4, w+1 {
			out = append(out, ts[o&0xf])
		}
	}
	return out
}

// placement is a machine and page-table shape every differential case
// runs on.
type placement struct {
	name      string
	mode      mem.CacheModeKind
	hot       float64 // leading fraction of the bound range promoted to MCDRAM
	wideLLC   bool    // a 32-way LLC: SetAssoc's wide-way fallback
	bigCaches bool    // HBMCXL's 48 KB/12-way L1 and 2 MB LLC
}

var placements = []placement{
	{name: "flat-all-ddr", mode: mem.FlatMode},
	{name: "flat-hot-half", mode: mem.FlatMode, hot: 0.5},
	{name: "flat-all-hot", mode: mem.FlatMode, hot: 1},
	{name: "cache-mode", mode: mem.CacheMode},
	{name: "flat-wide-llc", mode: mem.FlatMode, wideLLC: true},
	{name: "flat-big-caches", mode: mem.FlatMode, hot: 0.5, bigCaches: true},
}

func (pl placement) machine() mem.Machine {
	m := testMachine()
	m.Mode = pl.mode
	if pl.wideLLC {
		m.LLC.Ways = 32
	}
	if pl.bigCaches {
		m.LLC = mem.HBMCXL().LLC
	}
	return m
}

// diffCalls drives calls through the batched walk and the
// per-reference oracle on two fresh hierarchies of machine m and
// compares, after every call, the counters, drained cycles, per-tier
// traffic, the LLC-miss hook calls with their stream indices, and
// every set's contents and LRU order (L1, LLC and, in cache mode, the
// MCDRAM front cache). The batched walk's hook is due every period-th
// miss, the oracle's on every miss, so the batched calls must be every
// period-th of the oracle's. The page tables are buildHierarchy's.
func diffCalls(t testing.TB, m mem.Machine, lo, hi uint64, hotBytes, period int64, calls []call) {
	t.Helper()
	hBatch, ptBatch := buildHierarchy(t, m, lo, hi, hotBytes)
	hRef, ptRef := buildHierarchy(t, m, lo, hi, hotBytes)
	var mBatch, mRef, mWant []miss
	var pos, cur int64
	hBatch.SetLLCMissHook(period, func(a uint64, refIdx int64) int64 {
		mBatch = append(mBatch, miss{addr: a, idx: pos + refIdx})
		return period
	})
	hRef.SetLLCMissHook(1, func(a uint64, _ int64) int64 {
		if mRef = append(mRef, miss{addr: a, idx: cur}); int64(len(mRef))%period == 0 {
			mWant = append(mWant, mRef[len(mRef)-1])
		}
		return 1
	})
	for k, c := range calls {
		// A migration bumps Gen, so any cached extent must be dropped
		// (flat mode only — cache mode ignores the table).
		if c.mutate && m.Mode == mem.FlatMode {
			tier := mem.TierNVM
			if k%2 == 0 {
				tier = mem.TierMCDRAM
			}
			ptBatch.SetRange(c.base, 4*units.PageSize, tier)
			ptRef.SetRange(c.base, 4*units.PageSize, tier)
		}
		if c.pin != 0 && m.Mode == mem.FlatMode {
			ptBatch.SetRange(c.pin, 4*units.PageSize, mem.TierNVM)
			ptRef.SetRange(c.pin, 4*units.PageSize, mem.TierNVM)
		}
		drive(hBatch, c)
		driveOracle(hRef, c, pos, &cur)
		pos += c.refs
		label := fmt.Sprintf("hook period %d, call %d %+v", period, k, c)
		diffStates(t, label, snapshot(hBatch, 4), snapshot(hRef, 4))
		if !slices.Equal(setRecency(hBatch.l1), setRecency(hRef.l1)) {
			t.Errorf("%s: L1 set contents or LRU order differ from per-ref", label)
		}
		if !slices.Equal(setRecency(hBatch.llc), setRecency(hRef.llc)) {
			t.Errorf("%s: LLC set contents or LRU order differ from per-ref", label)
		}
		if mc := hBatch.MCDRAMCache(); mc != nil && !slices.Equal(mc.tags, hRef.MCDRAMCache().tags) {
			t.Errorf("%s: MCDRAM$ contents differ from per-ref", label)
		}
		if !slices.Equal(mBatch, mWant) {
			t.Errorf("%s: miss hook calls differ from every %d-th per-ref miss (%d vs %d calls)", label, period, len(mBatch), len(mWant))
		}
		if t.Failed() {
			return
		}
	}
}

// buildHierarchy builds a hierarchy of machine m over a page table that
// binds [lo, hi) as one coarse DDR segment, as the engine binds heap
// segments, and promotes its first hotBytes to MCDRAM.
func buildHierarchy(t testing.TB, m mem.Machine, lo, hi uint64, hotBytes int64) (*Hierarchy, *mem.PageTable) {
	t.Helper()
	pt := mem.NewPageTable(mem.TierDDR)
	if err := pt.SetCoarseRange(lo, int64(hi-lo), mem.TierDDR); err != nil {
		t.Fatal(err)
	}
	if hotBytes > 0 {
		pt.SetRange(lo, hotBytes, mem.TierMCDRAM)
	}
	h, err := NewHierarchy(&m, pt)
	if err != nil {
		t.Fatal(err)
	}
	return h, pt
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
	// Call sequences for the single-pass kernel (strided calls that do
	// not wrap their span), over a 16 MB segment at seqBase: passes far
	// longer than the LLC, passes that start on warm caches so L1 and
	// LLC hits land in sets the call later saturates, set-conflicting
	// and sub-line strides, and placement mutations between calls.
	const seqBase = uint64(1) << 32
	kb, mb := uint64(units.KB), uint64(units.MB)
	sequences := []struct {
		name  string
		calls []call
	}{
		{"single-pass-longer-than-llc", []call{
			{base: seqBase, stride: 64, span: 1 * units.MB, refs: 16384},
			{base: seqBase, stride: 256, span: 1 * units.MB, refs: 4096},
			{base: seqBase + 24, stride: 3 * units.PageSize, span: 8 * units.MB, refs: 600},
			{base: seqBase, stride: 64, span: 1 * units.MB, refs: 9000}, // stops short of the span
			// One ref past a single pass: the last wraps to the base.
			{base: seqBase, stride: 64, span: 64 * units.KB, refs: 1025},
			{base: seqBase + 8, stride: 256, span: 64 * units.KB, refs: 256},
		}},
		{"single-pass-prewarmed", []call{
			{base: seqBase, span: 96 * units.KB, refs: 6000, random: true, seed: 3},
			{base: seqBase, stride: 64, span: 512 * units.KB, refs: 8192},
			// Restart inside the previous pass's tail: LLC hits first,
			// L1 hits on its last lines, then fresh lines saturate.
			{base: seqBase + 480*kb, stride: 64, span: 256 * units.KB, refs: 4096},
			{base: seqBase + 500*kb, stride: 192, span: 200 * units.KB, refs: 1000},
			{base: seqBase, stride: 64, span: 16 * units.KB, refs: 200},
			{base: seqBase, span: 160 * units.KB, refs: 3000, random: true, seed: 9},
			{base: seqBase + 64*kb, stride: 128, span: 256 * units.KB, refs: 2048},
		}},
		// The third line of the conflicting pass hits L1, so the LLC
		// set it maps to fills with one L1 hit among its last 17 lines:
		// that line never reaches the LLC set.
		{"single-pass-l1-hit-in-saturated-llc-set", []call{
			{base: seqBase + 8192, stride: 64, span: 64, refs: 1},
			{base: seqBase, stride: 4096, span: 4 * units.MB, refs: 18},
			{base: seqBase + 4096 + 64, stride: 64, span: 128, refs: 2},
			{base: seqBase + 64, stride: 4096, span: 4 * units.MB, refs: 20},
		}},
		{"single-pass-set-conflict", []call{
			{base: seqBase, stride: 4096, span: 4 * units.MB, refs: 1024},
			{base: seqBase + 64, stride: 4096, span: 4 * units.MB, refs: 40},
			{base: seqBase, stride: 512, span: 1 * units.MB, refs: 2048},
			{base: seqBase, stride: 4096, span: 4 * units.MB, refs: 1024},
		}},
		{"single-pass-sub-line", []call{
			{base: seqBase + 40, stride: 24, span: 256 * units.KB, refs: 10000},
			{base: seqBase + 8, stride: 8, span: 128 * units.KB, refs: 16384},
			{base: seqBase + 100000, stride: 40, span: 96 * units.KB, refs: 2400},
		}},
		{"single-pass-mutations", []call{
			{base: seqBase, stride: 64, span: 512 * units.KB, refs: 8192},
			{base: seqBase, stride: 64, span: 512 * units.KB, refs: 8192, mutate: true},
			{base: seqBase + 256*kb, stride: 320, span: 256 * units.KB, refs: 800, mutate: true},
			{base: seqBase, stride: 64, span: 512 * units.KB, refs: 4096, mutate: true},
		}},
		// Saturated tails (flat mode, step >= line): passes that run
		// far past the point where every set they visit proves its
		// misses, so the rest of the call is booked in bulk. Line
		// stride over more than twice the largest LLC's lines, cold
		// and then on warm caches.
		{"tail-line-stride", []call{
			{base: seqBase, stride: 64, span: 8 * units.MB, refs: 100000},
			{base: seqBase + 4*kb, stride: 64, span: 8 * units.MB, refs: 90000},
		}},
		// A 64 KB stride maps every reference to one set of each cache.
		{"tail-set-conflict-64k", []call{
			{base: seqBase, stride: 64 * units.KB, span: 16 * units.MB, refs: 250},
			{base: seqBase + 64, stride: 64 * units.KB, span: 16 * units.MB, refs: 200},
		}},
		// Strides that are not powers of two: the set sequence repeats
		// with period span/gcd(step, span), not span/step.
		{"tail-odd-strides", []call{
			{base: seqBase + 8, stride: 96, span: 8 * units.MB, refs: 80000},
			{base: seqBase + 16, stride: 3*4096 + 64, span: 15 * units.MB, refs: 1200},
		}},
		// Tails that cross constant-tier extents: the end of the hot
		// prefix (hot placements), an NVM override pinned mid-tail, and
		// the end of the coarse segment at 16 MB.
		{"tail-across-extents", []call{
			{base: seqBase + 5*mb, stride: 64, span: 4 * units.MB, refs: 60000, pin: seqBase + 7*mb + 512*kb},
			{base: seqBase + 13*mb, stride: 128, span: 4 * units.MB, refs: 30000, pin: seqBase + 15*mb + 512*kb},
		}},
	}
	// The production shape of seq-sparse-repeat, at the test LLC's
	// scale: a pass sending each LLC set 8 lines alternates with a pass
	// over a higher range sending each set 16. Each pass finds the
	// previous pass of its own object in range above its first lines and
	// evicts those lines before it reaches them (an LRU cascade).
	sequences = append(sequences, struct {
		name  string
		calls []call
	}{"sparse-repeat", []call{
		{base: seqBase, stride: 192, span: 96 * units.KB, refs: 512},
		{base: seqBase + 96*kb, stride: 64, span: 64 * units.KB, refs: 1024},
		{base: seqBase, stride: 192, span: 96 * units.KB, refs: 512},
		{base: seqBase + 96*kb, stride: 64, span: 64 * units.KB, refs: 1024},
		{base: seqBase, stride: 192, span: 96 * units.KB, refs: 512},
	}})
	// Floor proofs: sparse passes that send each set 2 to 16 lines.
	sequences = append(sequences, floorSequences...)
	// The batched walk's miss hook runs at every miss, at a short odd
	// period and at the PEBS default, against the oracle's every miss.
	periods := []int64{1, 7, pebs.DefaultPeriod}
	for _, pl := range placements {
		for _, p := range patterns {
			t.Run(pl.name+"/"+p.name, func(t *testing.T) {
				// Segment bounds are page-aligned.
				spanPages := (p.span + units.PageSize - 1) / units.PageSize * units.PageSize
				first := call{base: p.base, stride: p.stride, span: p.span, random: p.random,
					refs: refs, seed: uint64(0xfeed + len(p.name))}
				// Phase 2 mutates the placement and continues the stream
				// index where phase 1 ended.
				second := first
				second.refs, second.seed, second.mutate = refs/2, first.seed^1, true
				for _, period := range periods {
					diffCalls(t, pl.machine(), p.base, p.base+uint64(spanPages+units.PageSize),
						int64(float64(p.span)*pl.hot), period, []call{first, second})
				}
			})
		}
		for _, sq := range sequences {
			t.Run(pl.name+"/"+sq.name, func(t *testing.T) {
				for _, period := range periods {
					diffCalls(t, pl.machine(), seqBase, seqBase+16*uint64(units.MB),
						int64(16*float64(units.MB)*pl.hot), period, sq.calls)
				}
				checkLive(t, pl.machine(), seqBase, seqBase+16*uint64(units.MB), sq.calls)
			})
		}
	}
}

// TestStreamTailGeometries pins the saturated tail's start rules and
// its replay on cache shapes where each one decides a reference:
//
//   - window: with a 1-way 4 KB LLC, every LLC set a stride-96 pass
//     visits is reached within one period, except set 0: both its
//     visits (lines 0 and 64, pre-warmed) hit L1, so the pass never
//     reaches it there. Line 192, also pre-warmed, sits in that LLC set
//     and is the first reference after the period: it misses L1 and
//     hits the LLC. A tail that did not wait for a whole period of
//     references that reached the LLC would book it as a miss.
//   - l1-live: with a 512 B 1-way LLC under the 8-way L1, a 512 B
//     stride maps every line to set 0 of both. Line 24 of the pass is
//     pre-warmed in the L1 but evicted from the LLC, so from the pass's
//     second line only the L1 has a live way; a tail that did not wait
//     for the L1 would book line 24, an L1 hit, as a miss.
//   - l1-lags: on the same caches the tail starts at the pass's second
//     line; its replay must leave the L1 set its last 8 lines, where
//     the LLC set keeps 1.
//   - wide-span (on the default test machine): a stride of 4097 walks
//     each LLC set 64 times before moving to the next, so the L1's
//     512 B set span repeats long before the LLC's 4 KB one. The first
//     line the pass sends to LLC set 8 is pre-warmed there; a tail
//     timed by the narrower span would book it as a miss.
func TestStreamTailGeometries(t *testing.T) {
	const base = uint64(1) << 32
	cases := []struct {
		name  string
		size  int64
		ways  int
		calls []call
	}{
		{"window", 4 * units.KB, 1, []call{
			{base: base, stride: 4096, span: 8192, refs: 2},
			{base: base + 192*64, stride: 64, span: 64, refs: 1},
			{base: base, stride: 96, span: units.MB, refs: 200},
		}},
		{"l1-live", 512, 1, []call{
			{base: base + 24*64, stride: 64, span: 64, refs: 1},
			{base: base + 8000*64, stride: 64, span: 64, refs: 1},
			{base: base, stride: 512, span: units.MB, refs: 20},
		}},
		{"l1-lags", 512, 1, []call{
			{base: base, stride: 512, span: units.MB, refs: 40},
		}},
		{"wide-span", 0, 0, []call{
			{base: base + 512*4097, stride: 64, span: 64, refs: 1},
			{base: base, stride: 4097, span: 16 * units.MB, refs: 2000},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := testMachine()
			if tc.ways > 0 {
				m.LLC.Size, m.LLC.Ways = tc.size, tc.ways
			}
			for _, period := range []int64{1, 7} {
				diffCalls(t, m, base, base+16*uint64(units.MB), 0, period, tc.calls)
			}
		})
	}
}

// floorSequences are call sequences aimed at the live ways of the
// single-pass kernel (SetAssoc.stream) — a set's floor is its lowest
// live way — laid out for the 64-set, 16-way LLC of testMachine (a
// 4 KB set span); every pass but the 4 KB warm-up sends each LLC set 2
// to 16 lines:
//
//   - floor-high-lines-resident: a foreign pass leaves old lines in
//     every set, a pass over the upper half of a range adds newer
//     ones, then the whole range follows. Each set's first line misses
//     and its lowest live way holds the upper pass's lowest line there,
//     which the lines below it do not evict (the foreign lines are
//     older), so that line hits. The identical pass repeats after
//     another foreign pass.
//   - floor-off-stride: a pass leaves every other line of a range
//     resident; passes over the lines between them, then over every
//     third line, find live ways they pass without touching.
//   - floor-partly-resident: a 4 KB warm-up makes the first lines of
//     half the sets of a 64 KB pass hit; the other half miss and find
//     the warm-up's lines one set span further live.
var floorSequences = []struct {
	name  string
	calls []call
}{
	{"floor-high-lines-resident", []call{
		{base: 1<<32 + 1<<20, stride: 320, span: 160 * units.KB, refs: 512},
		{base: 1<<32 + 320*192, stride: 192, span: 60 * units.KB, refs: 320},
		{base: 1 << 32, stride: 192, span: 120 * units.KB, refs: 640},
		{base: 1<<32 + 1<<20, stride: 320, span: 160 * units.KB, refs: 512},
		{base: 1 << 32, stride: 192, span: 120 * units.KB, refs: 640},
	}},
	{"floor-off-stride", []call{
		{base: 1 << 32, stride: 128, span: 96 * units.KB, refs: 768},
		{base: 1<<32 + 64, stride: 128, span: 96 * units.KB, refs: 768},
		{base: 1 << 32, stride: 192, span: 96 * units.KB, refs: 512},
	}},
	{"floor-partly-resident", []call{
		{base: 1<<32 + 2*uint64(units.KB), stride: 64, span: 4 * units.KB, refs: 64},
		{base: 1 << 32, stride: 64, span: 64 * units.KB, refs: 1024},
	}},
}

// TestStreamFloorGeometries pins the live-way rule on the sequences of
// floorSequences, on the default test machine, in cache mode, on the
// 32-way LLC (no packed order word, so no single-pass kernel) and on
// HBMCXL's 12-way L1 and 2 MB LLC: every call matches the
// per-reference oracle (diffCalls), and after every call each set
// holds the single-pass state the rule must leave (checkLive).
func TestStreamFloorGeometries(t *testing.T) {
	const base = uint64(1) << 32
	for _, pl := range []placement{placements[0], placements[3], placements[4], placements[5]} {
		for _, sq := range floorSequences {
			t.Run(pl.name+"/"+sq.name, func(t *testing.T) {
				m := pl.machine()
				for _, period := range []int64{1, 7} {
					diffCalls(t, m, base, base+16*uint64(units.MB), 0, period, sq.calls)
				}
				checkLive(t, m, base, base+16*uint64(units.MB), sq.calls)
			})
		}
	}
}

// checkLive drives calls through the batched walk on a fresh hierarchy
// of machine m and, one reference at a time, through the per-reference
// oracle on another, and after every single-pass call (none on a
// 32-way LLC) checks each set's single-pass state (SetAssoc.stream)
// against the set's contents before the call. A set the call reached carries the
// call's stamp; its live mask holds exactly the ways that still hold a
// pre-call tag above the last line the call sent the set and at or
// below the call's last line; and its ahead word lists those ways by
// ascending tag. A set the call did not reach carries an older stamp,
// and pending counts the reached sets with live ways. The oracle tells
// which lines hit L1 and never reached the LLC.
func checkLive(t *testing.T, m mem.Machine, lo, hi uint64, calls []call) {
	t.Helper()
	hb, _ := buildHierarchy(t, m, lo, hi, 0)
	hr, _ := buildHierarchy(t, m, lo, hi, 0)
	for k, c := range calls {
		pre1, pre2 := slices.Clone(hb.l1.tags), slices.Clone(hb.llc.tags)
		drive(hb, c)
		step := c.stride % c.span
		if c.random || step == 0 || c.refs-1 > (c.span-1)/step || hb.llc.order == nil {
			var cur int64
			driveOracle(hr, c, 0, &cur)
			continue
		}
		// The last tag the call sent each set, per cache.
		sent1, sent2 := map[uint64]uint64{}, map[uint64]uint64{}
		shift := hb.l1.lineShift
		lastLine := ^uint64(0)
		for i := int64(0); i < c.refs; i++ {
			addr := c.base + uint64(i*step)
			res := hr.Access(addr)
			line := addr >> shift
			if line == lastLine {
				continue
			}
			lastLine = line
			sent1[line&hb.l1.setMask] = line + 1
			if res.Level != LevelL1 {
				sent2[line&hb.llc.setMask] = line + 1
			}
		}
		last := (c.base+uint64((c.refs-1)*step))>>shift + 1
		for _, x := range []struct {
			name string
			c    *SetAssoc
			pre  []uint64
			sent map[uint64]uint64
		}{{"L1", hb.l1, pre1, sent1}, {"LLC", hb.llc, pre2, sent2}} {
			pending := 0
			for s := range x.c.live {
				got := x.c.live[s]
				sent, ok := x.sent[uint64(s)]
				if !ok {
					if got >= x.c.stamp {
						t.Errorf("call %d %+v: %s set %d not reached, stamp %#x is the call's", k, c, x.name, s, got)
					}
					continue
				}
				var want []uint64 // live ways by ascending tag
				ts := x.c.tags[s*x.c.ways : (s+1)*x.c.ways]
				for w, tag := range ts {
					if tag == x.pre[s*x.c.ways+w] && tag > sent && tag <= last {
						want = append(want, uint64(w))
					}
				}
				slices.SortFunc(want, func(a, b uint64) int { return int(ts[a]) - int(ts[b]) })
				wantWord, ahead := x.c.stamp, x.c.ahead[s]
				var gotAhead []uint64
				for _, w := range want {
					wantWord |= 1 << w
					gotAhead = append(gotAhead, ahead&0xf)
					ahead >>= 4
				}
				if got != wantWord || !slices.Equal(gotAhead, want) {
					t.Errorf("call %d %+v: %s set %d (last sent %d, call's last %d): live %#x ahead %v, want %#x %v",
						k, c, x.name, s, sent, last, got, gotAhead, wantWord, want)
				}
				if len(want) > 0 {
					pending++
				}
			}
			if x.c.pending != pending {
				t.Errorf("call %d %+v: %s pending = %d, %d sets have live ways", k, c, x.name, x.c.pending, pending)
			}
		}
		if t.Failed() {
			return
		}
	}
}

// FuzzAccessRun is the differential fuzzer of the batched walk: each
// input decodes to a placement, a miss-hook period and a sequence of
// strided or random calls (base, stride, span, refs, placement
// mutations), and diffCalls checks every call against the
// per-reference oracle. The MCDRAM front cache is shrunk to 256 KB so
// cache-mode inputs conflict in it.
func FuzzAccessRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		pl := placements[int(data[0])%len(placements)]
		// Byte 1 is the hook period; 0 stands for the PEBS default.
		period := int64(data[1])
		if period == 0 {
			period = pebs.DefaultPeriod
		}
		m := pl.machine()
		m.Tiers = slices.Clone(m.Tiers)
		for i := range m.Tiers {
			if m.Tiers[i].ID == mem.TierMCDRAM {
				m.Tiers[i].Capacity = 256 * units.KB
			}
		}
		const lo = uint64(1) << 32
		var calls []call
		// Each call takes 8 bytes: flags, stride (value, shift), span
		// (2), refs (2), base offset. Flags: bit 0 random, bit 1
		// mutate, bit 2 clamp refs to a single pass (plus one ref when
		// refs is odd, the first that wraps); bits 3-7 pick the base
		// page. Shifted strides make set-conflicting powers of two as
		// likely as odd ones. The shift byte's bits 4-5 scale refs by
		// up to 8, to 65,528: past the 34,816 lines a line-stride pass
		// needs before its saturated tail on the 2 MB LLC.
		for rest := data[2:]; len(rest) >= 8 && len(calls) < 8; rest = rest[8:] {
			flags := rest[0]
			c := call{
				base:   lo + uint64(flags>>3)*uint64(units.PageSize) + uint64(rest[7])*8,
				stride: int64(rest[1]) << (rest[2] % 16),
				span:   (int64(rest[3])<<8|int64(rest[4]))*64 + int64(rest[7]%64) + 1,
				refs:   (int64(rest[5])<<8 | int64(rest[6])) % 8192 << (rest[2] >> 4 & 3),
				random: flags&1 != 0,
				seed:   uint64(rest[7]),
				mutate: flags&2 != 0,
			}
			if flags&4 != 0 && !c.random {
				if step := c.stride % c.span; step > 0 {
					c.refs = min(c.refs, (c.span-1)/step+1+c.refs%2)
				}
			}
			calls = append(calls, c)
		}
		diffCalls(t, m, lo, lo+64*uint64(units.MB), int64(64*float64(units.MB)*pl.hot), period, calls)
	})
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
	if h.l1.Accesses() != 0 || h.LLCAccesses() != 0 || h.DrainPhase(1) != 0 {
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
		// The production shape of a Sequential touch: one pass over a
		// span larger than the LLC (refs = span/stride, no wrap).
		{name: "seq-singlepass", base: 1 << 32, stride: 256, span: 16 * units.MB},
		// The same pass on a profiling run: a sampler on the miss hook.
		{name: "seq-singlepass-sampled", base: 1 << 32, stride: 256, span: 16 * units.MB, sampled: true},
		// The same pass in cache mode: the tail hands each line to the
		// MCDRAM front cache.
		{name: "seq-singlepass-cachemode", base: 1 << 32, stride: 256, span: 16 * units.MB, cacheMode: true},
		// The production shape of the Figure-4 grid's sparse Sequential
		// touches: a single pass that sends each LLC set 8 lines,
		// repeated, alternating with a second object's pass that sends
		// each set 16. Neither proves a miss by saturating a set before
		// its last line; each finds the sets holding the other's lines.
		{name: "seq-sparse-repeat", base: 1 << 32, stride: 192, span: 1536 * units.KB,
			alt: &patternSpec{base: 1<<32 + 4*uint64(units.MB), stride: 64, span: 1 * units.MB}},
		{name: "random", base: 1 << 32, span: 4 * units.MB, random: true},
	}
	for _, p := range patterns {
		b.Run(p.name, func(b *testing.B) {
			m := mem.DefaultKNL()
			if p.cacheMode {
				m.Mode = mem.CacheMode
			}
			pt := mem.NewPageTable(mem.TierDDR)
			if err := pt.SetCoarseRange(p.base, 32*units.MB, mem.TierDDR); err != nil {
				b.Fatal(err)
			}
			h, err := NewHierarchy(&m, pt)
			if err != nil {
				b.Fatal(err)
			}
			if p.sampled {
				s := pebs.NewSampler(pebs.DefaultPeriod)
				h.SetLLCMissHook(s.Due(), func(a uint64, _ int64) int64 {
					s.Advance(s.Due(), a, "")
					return s.Due()
				})
			}
			rng := xrand.New(42)
			refs := int64(1 << 16)
			if p.alt != nil {
				refs = p.span/p.stride + p.alt.span/p.alt.stride
			}
			b.SetBytes(8 * refs) // rough: one 8-byte ref each
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch {
				case p.random:
					h.AccessRandomRun(p.base, p.span, refs, rng)
				case p.alt != nil:
					h.AccessRun(p.base, p.stride, p.span, p.span/p.stride)
					h.AccessRun(p.alt.base, p.alt.stride, p.alt.span, p.alt.span/p.alt.stride)
				default:
					h.AccessRun(p.base, p.stride, p.span, refs)
				}
				h.DrainPhase(4)
			}
			b.ReportMetric(float64(refs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
		})
	}
}
