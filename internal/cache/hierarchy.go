package cache

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/units"
	"repro/internal/xrand"
)

// Hierarchy wires L1 -> LLC -> (MCDRAM cache) -> memory tiers and
// accumulates both hit-cost cycles and per-tier traffic. The LLC-miss
// hook (SetLLCMissHook) is where the PEBS engine taps the stream,
// exactly as PEBS counts L2 miss events on Xeon Phi.
type Hierarchy struct {
	machine *mem.Machine
	l1      *SetAssoc
	llc     *SetAssoc
	mcCache *DirectMapped // non-nil only in cache mode
	pt      *mem.PageTable

	traffic   *mem.Traffic
	hitCycles units.Cycles

	// Run-length batching of the flat-mode miss path. Demand misses
	// stream: consecutive LLC misses overwhelmingly fall inside one
	// constant-tier extent (PageTable.TierExtent: a whole segment or
	// promoted range), so the hierarchy caches the last missed extent's tier and
	// accumulates the run's line count locally, paying one page-table
	// query plus one Traffic.AddBulk per run instead of one lookup and
	// one counter add per miss. The cache is private to this hierarchy
	// — one per simulated run, hence one per sweep worker — so parallel
	// workers never share the page table's internal last-hit state; it
	// invalidates on PageTable.Gen, which every placement mutation
	// (migration, alloc, free) bumps.
	runStart uint64
	runEnd   uint64
	runGen   uint64
	runTier  mem.TierID
	runLines int64

	// onLLCMiss is the LLC-miss hook and missDue the count of LLC
	// misses left until its next call, counting that miss: every miss
	// decrements missDue, the one that takes it to zero calls the hook,
	// and the hook's return value re-arms it. Without a hook missDue
	// starts at MaxInt64 and never reaches zero.
	onLLCMiss func(addr uint64, refIdx int64) int64
	missDue   int64
}

// NewHierarchy builds the hierarchy for machine. pt supplies the
// address→tier mapping used in flat mode; in cache mode all backing
// store is DDR fronted by the MCDRAM cache and pt is ignored on the
// memory path.
func NewHierarchy(machine *mem.Machine, pt *mem.PageTable) (*Hierarchy, error) {
	if err := machine.Validate(); err != nil {
		return nil, err
	}
	spec := machine.LLC
	l1, err := NewSetAssoc("L1", spec.L1Size, spec.L1Ways, spec.LineSize)
	if err != nil {
		return nil, err
	}
	llc, err := NewSetAssoc("LLC", spec.Size, spec.Ways, spec.LineSize)
	if err != nil {
		return nil, err
	}
	h := &Hierarchy{
		machine: machine,
		l1:      l1,
		llc:     llc,
		pt:      pt,
		traffic: mem.NewTraffic(),
		missDue: math.MaxInt64,
	}
	if machine.Mode == mem.CacheMode {
		mc, ok := machine.Tier(mem.TierMCDRAM)
		if !ok {
			return nil, fmt.Errorf("cache: cache mode requires an MCDRAM tier")
		}
		// Page-granular direct-mapped memory-side cache.
		dm, err := NewDirectMapped(mc.Capacity, units.PageSize)
		if err != nil {
			return nil, err
		}
		h.mcCache = dm
	}
	return h, nil
}

// Reuse rebinds the hierarchy to a new run's machine and page table,
// resetting every piece of mutable state, provided the new machine
// needs bit-identical cache structures (same L1/LLC geometry, same
// line size, same mode, and in cache mode the same MCDRAM capacity).
// It returns false — leaving the hierarchy untouched — when the
// geometry differs and the caller must build a fresh Hierarchy. The
// tag arrays are the dominant per-run allocation of a sweep cell (in
// cache mode, megabytes of front-cache leaves, allocated as the run
// first touches them), so pooled sweep workers reuse them across the
// cells they execute: a reused front cache keeps its leaves, cleared,
// and allocates only for slots no earlier cell touched. A reused
// hierarchy must be indistinguishable from a new one, which is what
// the pooled-vs-fresh sweep invariance tests pin.
func (h *Hierarchy) Reuse(machine *mem.Machine, pt *mem.PageTable) bool {
	if err := machine.Validate(); err != nil {
		return false
	}
	if machine.LLC != h.machine.LLC || machine.LineSize != h.machine.LineSize || machine.Mode != h.machine.Mode {
		return false
	}
	if machine.Mode == mem.CacheMode {
		mc, ok := machine.Tier(mem.TierMCDRAM)
		if !ok || h.mcCache == nil {
			return false
		}
		prev, ok := h.machine.Tier(mem.TierMCDRAM)
		if !ok || mc.Capacity != prev.Capacity {
			return false
		}
	}
	h.machine = machine
	h.pt = pt
	h.ResetCaches()
	h.traffic.Reset()
	h.hitCycles = 0
	h.runStart, h.runEnd, h.runGen, h.runTier, h.runLines = 0, 0, 0, 0, 0
	h.SetLLCMissHook(0, nil)
	return true
}

// SetLLCMissHook installs hook to observe the LLC miss stream
// decimated: it is called on the due-th LLC miss from now (due >= 1;
// 1 is the very next miss), before that miss is resolved against
// memory, and each call returns how many misses later the next call
// falls (>= 1, counting that miss). A sampler's countdown maps onto it
// directly, so a run that keeps one miss in N pays one call per N
// misses. refIdx is the index of the missing reference within the
// current batched call (AccessRun/AccessRandomRun); adding it to a
// running reference count reconstructs the per-reference stream
// position, which is how the engine keeps PEBS sample indices
// bit-identical to a reference-at-a-time walk. A nil hook removes it.
func (h *Hierarchy) SetLLCMissHook(due int64, hook func(addr uint64, refIdx int64) int64) {
	if hook == nil {
		due = math.MaxInt64
	}
	h.onLLCMiss, h.missDue = hook, due
}

// accessLine is the line-crossing slow path of the batched access
// loops: one full L1→LLC→memory walk for the reference with index
// refIdx inside the current batched call.
func (h *Hierarchy) accessLine(addr uint64, refIdx int64) {
	if h.l1.Access(addr) {
		h.hitCycles += h.machine.LLC.L1Hit
		return
	}
	if h.llc.Access(addr) {
		h.hitCycles += h.machine.LLC.HitCycles
		return
	}
	h.missLine(addr, refIdx)
}

// missLine is the memory side of one LLC miss, shared by every batched
// walk: the miss-hook countdown, then either the cache-mode MCDRAM
// front cache or the flat-mode tier lookup (bookFlat).
func (h *Hierarchy) missLine(addr uint64, refIdx int64) {
	if h.missDue--; h.missDue == 0 {
		h.missDue = h.onLLCMiss(addr, refIdx)
	}
	line := h.machine.LineSize
	if h.mcCache != nil {
		// Cache mode: MCDRAM fronts DDR for all data.
		if h.mcCache.Access(addr) {
			h.traffic.Add(mem.TierMCDRAM, line)
			return
		}
		// Miss: the demand line crosses DDR, plus a quarter line of
		// average fill/writeback overhead (a cache-mode miss moves
		// data DDR->MCDRAM and evicts a possibly dirty victim, so its
		// effective DDR cost exceeds a flat-mode access — the reason
		// cache mode loses to conscious flat placement in the paper).
		// The fill write also consumes MCDRAM bandwidth. The exact
		// charge — line + line/4 on DDR, line on MCDRAM — is pinned by
		// TestCacheModeMissCharge.
		h.traffic.Add(mem.TierDDR, line)
		h.traffic.Add(mem.TierDDR, line/4)
		h.traffic.Add(mem.TierMCDRAM, line)
		return
	}
	if h.runLines > 0 && addr >= h.runStart && addr < h.runEnd && h.runGen == h.pt.Gen() {
		h.runLines++ // bookFlat's common case, kept here: bookFlat is too big to inline
		return
	}
	h.bookFlat(addr, 1, 1)
}

// bookFlat books up to n flat-mode LLC misses at addr, addr+step, ...
// into the batched miss run and returns how many it booked: all of
// them that fall inside the run's constant-tier extent, at least the
// first. An addr outside the current run (or a run gone stale with a
// placement change) flushes it and opens a wide PageTable.TierExtent
// run at addr — the batched callers stream whole objects, so a
// page-granular run would re-query the table every page, or, for
// strides wider than a page, every single miss.
func (h *Hierarchy) bookFlat(addr, step uint64, n int64) int64 {
	if h.runLines == 0 || addr < h.runStart || addr >= h.runEnd || h.runGen != h.pt.Gen() {
		h.flushRun()
		h.runTier, h.runStart, h.runEnd = h.pt.TierExtent(addr)
		h.runGen = h.pt.Gen()
	}
	if room := (h.runEnd - addr - 1) / step; room < uint64(n-1) {
		n = int64(room) + 1
	}
	h.runLines += n
	return n
}

// AccessRun walks refs strided references over [base, base+span)
// through the hierarchy, wrapping at the span — the batched equivalent
// of walking base + (i*stride)%span for i in [0, refs) one reference
// at a time. All bookkeeping (hit cycles, cache hit/miss counters,
// per-tier traffic, LLC-miss hook calls with intra-run indices, and
// each cache set's contents and LRU order) is bit-identical to that
// per-reference loop, which the package tests keep as the oracle; the
// batching only changes how it is computed:
//
//   - A reference falling in the SAME cache line as its predecessor is
//     a deterministic L1 hit (the predecessor made that line MRU and
//     nothing between them can evict it), so sub-line runs are counted
//     locally and booked as one bulk hits += n / hitCycles += n*L1Hit
//     pair at the end of the call.
//   - A call that does not wrap its span ((refs-1)*step < span) takes
//     the single-pass kernel (streamRun), which proves most of its
//     misses instead of probing for them and, with step >= line, books
//     its saturated tail in bulk. It needs packed-LRU caches (at most
//     16 ways, as on every shipped machine).
//   - The line-crossing references of a wrapping call take the full
//     walk, with misses batched per constant-tier extent
//     (PageTable.TierExtent) instead of per page, so a stream over a
//     segment pays one table query per run of same-tier misses even
//     when the stride exceeds a page.
func (h *Hierarchy) AccessRun(base uint64, stride, span, refs int64) {
	if refs <= 0 || span <= 0 {
		return
	}
	step := stride % span
	if step > 0 && refs-1 <= (span-1)/step && h.l1.order != nil && h.llc.order != nil {
		h.streamRun(base, step, refs)
		return
	}
	l1Shift := h.l1.lineShift
	off := int64(0)
	lastLine := ^uint64(0) // sentinel: no previous reference
	var sameLine int64
	for i := int64(0); i < refs; i++ {
		addr := base + uint64(off)
		if line := addr >> l1Shift; line != lastLine {
			h.accessLine(addr, i)
			lastLine = line
		} else {
			sameLine++
		}
		off += step
		if off >= span {
			off -= span
		}
	}
	h.bookSameLine(sameLine)
}

// streamRun is AccessRun for a call that does not wrap its span: refs
// references at base + i*step, step > 0. Its line-crossing references
// touch strictly increasing, hence distinct, lines, so each set of each
// cache receives an ascending run of them. By the LRU stack property
// (Mattson et al., IBM Sys. J. 1970) a set decides them all from its
// contents when the call first reaches it: a line of the call can hit
// only a way that then held a tag between that first line and the
// call's last, and only while the call has not yet passed or evicted
// it. SetAssoc.stream keeps those live ways per set, lowest tag first;
// every other line installs at the LRU way with no scan, so each set
// holds its true LRU state after every line. A line that misses L1
// goes on to the LLC, and one that misses the LLC to the memory side
// (missLine).
//
// With step >= line (every reference on its own line) the call ends in
// a saturated tail: any p consecutive references, p the longer of the
// two caches' set periods (SetAssoc.period), visit every set of either
// cache the call ever will. Once the last p references all reached the
// LLC (so each cache has scanned every set the call will send a line
// to) and no set of either cache has a live way, every later reference
// misses both caches, and missTail books the rest of the call in bulk.
func (h *Hierarchy) streamRun(base uint64, step, refs int64) {
	l1, llc := h.l1, h.llc
	shift := l1.lineShift // both caches use the machine's line size
	last := (base+uint64((refs-1)*step))>>shift + 1
	l1.beginStream(last)
	llc.beginStream(last)
	lastLine := ^uint64(0)
	var sameLine, l1Hits, llcHits int64
	p := refs // no tail
	if step >= h.machine.LineSize {
		p = max(l1.period(step), llc.period(step))
	}
	tailFrom := p
	addr := base
	for i := int64(0); i < refs; i, addr = i+1, addr+uint64(step) {
		line := addr >> shift
		if line == lastLine {
			sameLine++
			continue
		}
		lastLine = line
		if i >= tailFrom && l1.pending == 0 && llc.pending == 0 {
			h.missTail(base, step, i, refs)
			break
		}
		if l1.stream(line) {
			l1Hits++
			tailFrom = i + 1 + p
			continue
		}
		if llc.stream(line) {
			llcHits++
			continue
		}
		h.missLine(addr, i)
	}
	h.hitCycles += units.Cycles(l1Hits)*h.machine.LLC.L1Hit + units.Cycles(llcHits)*h.machine.LLC.HitCycles
	h.bookSameLine(sameLine)
}

// missTail books references first..refs-1 of a single-pass call (each
// on its own line, each a miss in both caches) in bulk: both miss
// counters at once; in flat mode the memory side one TierExtent run at
// a time (bookFlat) and the miss hook at the due miss only, its address
// and call index found by arithmetic; in cache mode each line through
// missLine, for the MCDRAM front cache. The counts, traffic and hook
// calls are those of the per-line loop. Then each cache replays the
// lines that decide its final state (SetAssoc.replay).
func (h *Hierarchy) missTail(base uint64, step, first, refs int64) {
	h.l1.misses += refs - first
	h.llc.misses += refs - first
	for i := first; i < refs; {
		addr := base + uint64(i*step)
		switch {
		case h.mcCache != nil:
			h.missLine(addr, i)
			i++
		case h.missDue == 1:
			h.missDue = h.onLLCMiss(addr, i)
			i += h.bookFlat(addr, uint64(step), 1)
		default:
			n := h.bookFlat(addr, uint64(step), min(refs-i, h.missDue-1))
			h.missDue -= n
			i += n
		}
	}
	h.l1.replay(base, step, first, refs)
	h.llc.replay(base, step, first, refs)
}

// AccessRandomRun walks refs uniformly random 8-byte-aligned
// references over [base, base+span) — the batched equivalent of the
// engine's gather/pointer-chase loops. It consumes exactly one
// rng.Uint64n(span) per reference, in order, so the random stream (and
// with it every downstream counter) is bit-identical to the
// per-reference loop it replaces.
func (h *Hierarchy) AccessRandomRun(base uint64, span, refs int64, rng *xrand.RNG) {
	if refs <= 0 || span <= 0 {
		return
	}
	l1Shift := h.l1.lineShift
	uspan := uint64(span)
	lastLine := ^uint64(0)
	var sameLine int64
	for i := int64(0); i < refs; i++ {
		addr := base + (rng.Uint64n(uspan) &^ 7)
		if line := addr >> l1Shift; line != lastLine {
			h.accessLine(addr, i)
			lastLine = line
		} else {
			sameLine++
		}
	}
	h.bookSameLine(sameLine)
}

// bookSameLine books n same-line references — deterministic L1 hits on
// the MRU line — in bulk.
func (h *Hierarchy) bookSameLine(n int64) {
	if n > 0 {
		h.l1.addHits(n)
		h.hitCycles += units.Cycles(n) * h.machine.LLC.L1Hit
	}
}

// flushRun books the batched miss run into the traffic accumulator.
// Traffic.AddBulk(tier, n, line) is exactly n Traffic.Add(tier, line)
// calls, so drained phase costs are bit-identical to the unbatched
// path.
func (h *Hierarchy) flushRun() {
	if h.runLines > 0 {
		h.traffic.AddBulk(h.runTier, h.runLines, h.machine.LineSize)
		h.runLines = 0
	}
}

// DrainPhase converts the traffic accumulated since the last drain into
// cycles for a region run on cores cores, adds the buffered cache-hit
// cycles, and resets both accumulators. Callers invoke it at phase
// boundaries so bandwidth contention is computed per phase. The
// conversion is mem.Traffic.MemoryTime, so tier distance (NUMA) and
// the machine's TierOverlap combine the per-tier costs.
func (h *Hierarchy) DrainPhase(cores int) units.Cycles {
	h.flushRun()
	c := h.traffic.MemoryTime(h.machine, cores) + h.hitCycles
	h.traffic.Reset()
	h.hitCycles = 0
	return c
}

// PendingTraffic returns a snapshot of the not-yet-drained traffic.
// The batched miss run is flushed first so the snapshot is complete.
// The returned value is a copy — mutating it cannot corrupt the costs
// DrainPhase will charge (mem.Traffic is two value arrays, so the
// copy is deep; pinned by TestPendingTrafficIsSnapshot).
func (h *Hierarchy) PendingTraffic() *mem.Traffic {
	h.flushRun()
	snap := *h.traffic
	return &snap
}

// LLCMisses returns cumulative LLC misses.
func (h *Hierarchy) LLCMisses() int64 { return h.llc.Misses() }

// LLCAccesses returns cumulative LLC lookups.
func (h *Hierarchy) LLCAccesses() int64 { return h.llc.Accesses() }

// MCDRAMCache returns the cache-mode front cache, or nil in flat mode.
func (h *Hierarchy) MCDRAMCache() *DirectMapped { return h.mcCache }

// ResetCaches invalidates all cache state (used between runs) without
// touching traffic accumulators.
func (h *Hierarchy) ResetCaches() {
	h.l1.Reset()
	h.llc.Reset()
	if h.mcCache != nil {
		h.mcCache.Reset()
	}
}
