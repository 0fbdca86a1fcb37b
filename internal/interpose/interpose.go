// Package interpose implements auto-hbwmalloc: the LD_PRELOAD-style
// interposition library that is the run-time half of the framework
// (Section III, Step 4, Algorithm 1). Every dynamic allocation of the
// application is intercepted; if its size passes the advisor's lb/ub
// pre-filter, its call stack is unwound, looked up in a decision cache
// and — on a cache miss — ASLR-translated and matched against the
// advisor report. Matching allocations are forwarded to their target
// tier's allocator as long as they fit in the advisor-given budget;
// everything else falls back to the default allocator.
//
// The library is tier-count-agnostic: the advisor report names a
// target tier per site, the library resolves those names against the
// machine's heaps, and every placement failure walks a FALLBACK CHAIN
// down the hierarchy — a site bound to tier k falls to k+1, k+2, …
// on capacity exhaustion, and even unmatched allocations cascade below
// the default tier when the default heap itself fills (the DDR→NVM
// overflow of an Optane-class node). On multi-domain machines the
// chain is DISTANCE-ORDERED: heaps carry the effective (NUMA-derated)
// perf of their backing tier from the rank's pinned domain, so a site
// binds to its preferred near tier and spills to the nearest next-best
// memory rather than a raw-faster tier a hop away (alloc.HeapSpec.Perf,
// mem.Machine.NearHierarchy).
//
// The library keeps the bookkeeping the paper enumerates: which
// allocations each allocator owns (so frees are routed correctly), how
// much alternate space is in use per tier (so no budget is ever
// exceeded even when the advisor under-estimated loop allocations),
// and execution statistics (allocation counts, bytes requested,
// high-water mark, and whether anything did not fit), which every run
// reports in Result.Metrics under interpose_* keys.
package interpose

import (
	"fmt"

	"repro/internal/advisor"
	"repro/internal/alloc"
	"repro/internal/callstack"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/units"
)

// Options tune the library; zero values give the paper's defaults.
type Options struct {
	// BudgetOverride replaces the report's fastest-tier budget when
	// positive. The paper uses this for Lulesh: advise for 512 MB but
	// enforce 256 MB.
	BudgetOverride int64
}

// counters are the statistics auto-hbwmalloc captures "upon user
// request"; they leave the library only through MetricsSnapshot.
type counters struct {
	allocations    int64 // mallocs seen
	bytesRequested int64
	hbwAllocations int64 // routed to the fastest tier
	hbwBytes       int64
	hbwHWM         int64 // fastest-tier high-water mark (library view)
	notFit         int64 // matched but rejected by budget/OOM at target
	fallbacks      int64 // allocations served below their intended tier
	cacheHits      int64
	cacheMisses    int64
	partitioned    int64 // allocations placed by critical sub-range
	unwinds        int64
	translates     int64
	sizeFiltered   int64 // skipped by the lb/ub pre-filter
}

// Library is one loaded instance of auto-hbwmalloc.
type Library struct {
	mk   *alloc.Memkind
	prog *callstack.Program

	targets    map[callstack.Key]alloc.Kind // whole-object target heap
	partitions map[callstack.Key]advisor.Entry
	lb, ub     int64

	// budgets caps the library's live bytes per budgeted kind (the
	// advisor-given limits); kinds without an entry are bounded by
	// their arena alone. used mirrors the budgeted kinds.
	budgets map[alloc.Kind]int64
	used    map[alloc.Kind]int64

	fastKind alloc.Kind
	defTier  mem.TierID

	owned map[uint64]ownedAlloc // addr -> kind + aligned size (budgeted kinds)
	// parts tracks partition-placed allocations: addr -> bound range.
	parts    map[uint64]partRange
	decision map[uint64]siteDecision // stack fingerprint -> decision

	stats    counters
	overhead units.Cycles
}

type ownedAlloc struct {
	kind alloc.Kind
	size int64
}

// New builds the library from an advisor report.
func New(mk *alloc.Memkind, prog *callstack.Program, rep *advisor.Report, opts Options) (*Library, error) {
	if mk == nil || prog == nil || rep == nil {
		return nil, fmt.Errorf("interpose: nil memkind, program or report")
	}
	budget := rep.Budget
	if opts.BudgetOverride > 0 {
		budget = opts.BudgetOverride
	}
	if budget <= 0 {
		return nil, fmt.Errorf("interpose: non-positive budget %d", budget)
	}
	fastKind := mk.FastestKind()
	defTier, _ := mk.TierOf(alloc.KindDefault)
	l := &Library{
		mk: mk, prog: prog,
		targets:    make(map[callstack.Key]alloc.Kind),
		partitions: keyedPartitions(rep),
		lb:         rep.LBSize, ub: rep.UBSize,
		budgets:  map[alloc.Kind]int64{fastKind: budget},
		used:     make(map[alloc.Kind]int64),
		fastKind: fastKind,
		defTier:  defTier,
		owned:    make(map[uint64]ownedAlloc),
		parts:    make(map[uint64]partRange),
		decision: make(map[uint64]siteDecision),
	}
	// Per-tier budgets of an N-tier report: every packed tier the
	// machine actually carries gets its recorded cap (the fastest
	// keeps the possibly-overridden Budget).
	for _, tb := range rep.Tiers {
		k, ok := mk.KindForName(tb.Name)
		if !ok || k == fastKind || k == alloc.KindDefault {
			continue
		}
		l.budgets[k] = tb.Capacity
	}
	// Resolve each selected site's tier name to a heap. In a legacy
	// two-tier report (no per-tier budgets) every entry means
	// "promote", so unknown names degrade to the fastest heap. In an
	// N-tier report an unknown name may just as well be a
	// slower-than-default floor this machine lacks — promoting such a
	// "banish to NVM" entry would burn the fast budget on cold data —
	// so the entry is dropped and the object rests on the default.
	for site, tierName := range rep.SiteTargets() {
		k, ok := mk.KindForName(tierName)
		if !ok {
			if len(rep.Tiers) > 0 {
				continue
			}
			k = fastKind
		}
		if k == alloc.KindDefault {
			continue
		}
		l.targets[site] = k
	}
	return l, nil
}

// promoteKind is the cached per-site decision class.
type promoteKind uint8

const (
	promoteNo promoteKind = iota
	promoteWhole
	promotePartition
)

// siteDecision caches the decision class and its target heap.
type siteDecision struct {
	kind   promoteKind
	target alloc.Kind
}

// partRange is the fast-bound sub-range of a partitioned allocation.
type partRange struct {
	offset, size int64
}

func keyedPartitions(rep *advisor.Report) map[callstack.Key]advisor.Entry {
	out := make(map[callstack.Key]advisor.Entry)
	for site, e := range rep.Partitions() {
		out[callstack.Key(site)] = e
	}
	return out
}

// Factory adapts the library to the engine's policy plug.
func Factory(rep *advisor.Report, opts Options) engine.PolicyFactory {
	return func(mk *alloc.Memkind, prog *callstack.Program) (engine.Policy, error) {
		return New(mk, prog, rep, opts)
	}
}

// Name implements engine.Policy.
func (l *Library) Name() string { return "framework" }

// Malloc implements Algorithm 1 of the paper, generalized to N tiers.
func (l *Library) Malloc(stack callstack.Stack, size int64) (uint64, error) {
	l.stats.allocations++
	l.stats.bytesRequested += size

	d := l.classify(stack, size)
	switch d.kind {
	case promoteWhole:
		if addr, ok := l.tryTier(d.target, size); ok {
			return addr, nil
		}
	case promotePartition:
		if addr, ok := l.tryPartition(stack, size); ok {
			return addr, nil
		}
	}
	return l.defaultAlloc(size)
}

// defaultAlloc serves an allocation from the default heap, cascading
// down the hierarchy when the default tier itself is exhausted (the
// N-tier overflow path; on a two-tier machine the default heap is
// effectively unbounded and the chain never engages).
func (l *Library) defaultAlloc(size int64) (uint64, error) {
	addr, kind, err := l.mk.MallocFallback(alloc.KindDefault, size)
	if err != nil {
		return 0, err
	}
	if kind != alloc.KindDefault {
		l.stats.fallbacks++
	}
	return addr, nil
}

// classify runs the size gate, decision cache and translation match
// of Algorithm 1 (lines 3–11), charging the modeled costs. It returns
// whether the site is selected for whole-object placement (and on
// which heap), partitioned promotion, or nothing at all.
func (l *Library) classify(stack callstack.Stack, size int64) siteDecision {
	if len(l.targets) == 0 && len(l.partitions) == 0 {
		return siteDecision{}
	}
	if l.ub > 0 && (size < l.lb || size > l.ub) {
		l.stats.sizeFiltered++
		return siteDecision{}
	}
	// Unwind the call stack (always needed past the size gate).
	l.stats.unwinds++
	l.overhead += callstack.UnwindCost(len(stack))

	fp := stack.Fingerprint()
	if d, found := l.decision[fp]; found {
		l.stats.cacheHits++
		return d
	}
	l.stats.cacheMisses++
	// Translate (binutils) and match against the report.
	l.stats.translates++
	l.overhead += callstack.TranslateCost(len(stack))
	key := l.prog.Table.Translate(stack)
	d := siteDecision{}
	if target, ok := l.targets[key]; ok {
		d = siteDecision{kind: promoteWhole, target: target}
	} else if _, ok := l.partitions[key]; ok {
		d = siteDecision{kind: promotePartition, target: l.fastKind}
	}
	l.decision[fp] = d
	return d
}

// tryPartition allocates the object on the default heap and binds its
// critical sub-range to the fastest tier (simulated mbind), charging
// the bound bytes to the fast budget.
func (l *Library) tryPartition(stack callstack.Stack, size int64) (uint64, bool) {
	e, ok := l.partitions[l.prog.Table.Translate(stack)]
	if !ok {
		return 0, false
	}
	off, psz := e.PartOffset, e.PartSize
	if off >= size {
		return 0, false
	}
	if off+psz > size {
		psz = size - off
	}
	if l.used[l.fastKind]+psz > l.budgets[l.fastKind] {
		l.stats.notFit++
		return 0, false
	}
	addr, err := l.mk.Malloc(alloc.KindDefault, size)
	if err != nil {
		return 0, false
	}
	fastTier, _ := l.mk.TierOf(l.fastKind)
	l.mk.BindPages(addr, off, psz, fastTier)
	l.parts[addr] = partRange{offset: off, size: psz}
	l.used[l.fastKind] += psz
	if l.used[l.fastKind] > l.stats.hbwHWM {
		l.stats.hbwHWM = l.used[l.fastKind]
	}
	l.overhead += alloc.HBWAllocPenalty(psz)
	l.stats.hbwAllocations++
	l.stats.hbwBytes += psz
	l.stats.partitioned++
	return addr, true
}

// tryTier attempts placement on the target heap, walking the fallback
// chain of strictly slower NON-DEFAULT heaps under their budgets.
// Reaching the default tier means "no special placement" and returns
// false so the caller takes the default path.
func (l *Library) tryTier(target alloc.Kind, size int64) (uint64, bool) {
	chain, err := l.mk.FallbackChain(target)
	if err != nil {
		return 0, false
	}
	for _, k := range chain {
		if k == alloc.KindDefault {
			return 0, false
		}
		if b, capped := l.budgets[k]; capped && l.used[k]+size > b {
			if k == target {
				l.stats.notFit++
			}
			continue
		}
		addr, err := l.mk.Malloc(k, size)
		if err != nil {
			if k == target {
				l.stats.notFit++
			}
			continue
		}
		l.overhead += alloc.HBWAllocPenalty(size)
		aligned, _ := l.mk.Arena(k).SizeOf(addr)
		l.owned[addr] = ownedAlloc{kind: k, size: aligned}
		l.used[k] += aligned
		if k == l.fastKind {
			if l.used[k] > l.stats.hbwHWM {
				l.stats.hbwHWM = l.used[k]
			}
			l.stats.hbwAllocations++
			l.stats.hbwBytes += size
		}
		if k != target {
			l.stats.fallbacks++
		}
		return addr, true
	}
	return 0, false
}

// Free implements engine.Policy, routing to the owning allocator and
// unbinding partitioned sub-ranges.
func (l *Library) Free(addr uint64) error {
	if oa, ok := l.owned[addr]; ok {
		delete(l.owned, addr)
		l.used[oa.kind] -= oa.size
	}
	if pr, ok := l.parts[addr]; ok {
		l.mk.BindPages(addr, pr.offset, pr.size, l.defTier)
		delete(l.parts, addr)
		l.used[l.fastKind] -= pr.size
	}
	return l.mk.Free(addr)
}

// Realloc implements engine.Policy. A tier-resident block grows in
// place while its tier's budget allows and otherwise falls down the
// hierarchy, releasing its footprint; a partitioned block loses its
// bound range. Any block whose heap is exhausted spills down the
// hierarchy (alloc.Memkind.ReallocFallback), the same overflow path
// Malloc takes, so an interposed run never fails where the plain
// default allocator would have spilled.
func (l *Library) Realloc(stack callstack.Stack, addr uint64, size int64) (uint64, error) {
	if addr == 0 {
		return l.Malloc(stack, size)
	}
	if pr, ok := l.parts[addr]; ok {
		// Partitioned allocations are demoted on realloc: the hot
		// range was computed for the old layout (see DESIGN.md).
		l.mk.BindPages(addr, pr.offset, pr.size, l.defTier)
		delete(l.parts, addr)
		l.used[l.fastKind] -= pr.size
	}
	oa, owned := l.owned[addr]
	b, capped := l.budgets[oa.kind]
	if owned && capped && l.used[oa.kind]-oa.size+size > b {
		// Over the tier's budget: demote down the hierarchy.
		l.stats.notFit++
		na, err := l.defaultAlloc(size)
		if err != nil {
			return 0, err
		}
		if err := l.Free(addr); err != nil {
			return 0, err
		}
		return na, nil
	}
	from, _ := l.mk.KindOf(addr)
	na, kind, err := l.mk.ReallocFallback(addr, size)
	if err != nil {
		return 0, err
	}
	if kind != from {
		// The owning heap was exhausted and the block spilled.
		if owned {
			l.stats.notFit++
		}
		if kind != alloc.KindDefault {
			l.stats.fallbacks++
		}
	}
	if owned {
		delete(l.owned, addr)
		l.used[oa.kind] -= oa.size
		if kind == oa.kind {
			aligned, _ := l.mk.Arena(kind).SizeOf(na)
			l.owned[na] = ownedAlloc{kind: kind, size: aligned}
			l.used[kind] += aligned
			if kind == l.fastKind && l.used[kind] > l.stats.hbwHWM {
				l.stats.hbwHWM = l.used[kind]
			}
			l.overhead += alloc.HBWAllocPenalty(size)
		}
	}
	return na, nil
}

// OverheadCycles implements engine.Policy.
func (l *Library) OverheadCycles() units.Cycles { return l.overhead }

// MetricsSnapshot implements engine.MetricsProvider: the library's
// statistics, merged into Result.Metrics at the end of the run.
func (l *Library) MetricsSnapshot() map[string]int64 {
	st := &l.stats
	return map[string]int64{
		"interpose_allocations":     st.allocations,
		"interpose_bytes_requested": st.bytesRequested,
		"interpose_hbw_allocations": st.hbwAllocations,
		"interpose_hbw_bytes":       st.hbwBytes,
		"interpose_hbw_hwm":         st.hbwHWM,
		"interpose_not_fit":         st.notFit,
		"interpose_fallbacks":       st.fallbacks,
		"interpose_cache_hits":      st.cacheHits,
		"interpose_cache_misses":    st.cacheMisses,
		"interpose_partitioned":     st.partitioned,
		"interpose_unwinds":         st.unwinds,
		"interpose_translates":      st.translates,
		"interpose_size_filtered":   st.sizeFiltered,
	}
}
