package alloc

import (
	"errors"
	"fmt"

	"repro/internal/mem"
	"repro/internal/units"
)

// Kind selects an allocation heap, mirroring the memkind library's
// partition kinds (MEMKIND_DEFAULT, MEMKIND_HBW, MEMKIND_DAX_KMEM, …).
// Kinds are dense indices into the Memkind's heap list: kind 0 is
// always the default heap, higher kinds are the machine's remaining
// tiers in descending-performance order.
type Kind uint8

// The kinds of the reference two-tier machine. On an N-tier Memkind,
// KindHBW still names the fastest non-default heap (heap index 1).
const (
	KindDefault Kind = iota // regular DDR heap (glibc malloc)
	KindHBW                 // fastest non-default heap (hbwmalloc)
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindDefault:
		return "default"
	case KindHBW:
		return "hbw"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// HeapSpec sizes one heap of an N-tier Memkind: the backing tier (the
// spec supplies ID, name and RelativePerf) plus the heap's byte
// reservation inside that tier.
type HeapSpec struct {
	Tier mem.TierSpec
	Size int64

	// Perf is the heap's placement priority — the backing tier's
	// EFFECTIVE performance from the domain the rank is pinned to
	// (mem.Machine.EffectivePerf). Zero falls back to the tier's raw
	// RelativePerf. Fallback chains walk heaps in descending Perf, so
	// on a multi-domain machine a full near heap spills to the next
	// NEAREST-fastest heap (distance-ordered spill) rather than the
	// raw-fastest one a hop away.
	Perf float64
}

// perf returns the heap's placement priority.
func (h HeapSpec) perf() float64 {
	if h.Perf > 0 {
		return h.Perf
	}
	return h.Tier.RelativePerf
}

// Memkind is the allocation façade the interposition library talks to:
// one arena per memory tier over tier-bound segments, with
// pointer-ownership routing for free/realloc. Allocations and frees
// must be matched against the kind that performed them — exactly the
// bookkeeping obligation Section III attributes to auto-hbwmalloc.
//
// Kinds are dense indices, so the per-kind state lives in slices, and
// the fallback chains — consulted on every interposed allocation — are
// precomputed at construction: the malloc fast path performs no map
// hashing and no allocation.
type Memkind struct {
	arenas []*Arena   // indexed by Kind
	specs  []HeapSpec // indexed by Kind
	order  []Kind     // heap-list order (default first)
	byPerf []Kind     // all kinds, descending tier RelativePerf
	chains [][]Kind   // indexed by Kind; see FallbackChain
	space  *Space
}

// NewMemkind builds the classic two-tier heap pair over space: a
// DDR-backed default heap of ddrHeap bytes and an MCDRAM-backed HBW
// heap of hbwHeap bytes. No production caller: runs build their heaps
// from the machine's tiers through NewMemkindHierarchyPooled; this
// fixed pair is the shared fixture of the alloc, baseline, interpose
// and root tests.
func NewMemkind(space *Space, ddrHeap, hbwHeap int64) (*Memkind, error) {
	return NewMemkindHierarchy(space, []HeapSpec{
		{Tier: mem.TierSpec{ID: mem.TierDDR, Name: "DDR", RelativePerf: 1.0}, Size: ddrHeap},
		{Tier: mem.TierSpec{ID: mem.TierMCDRAM, Name: "MCDRAM", RelativePerf: 4.8}, Size: hbwHeap},
	})
}

// NewMemkindHierarchy builds one heap per entry of heaps; heaps[0] is
// the default heap (what plain malloc serves from), the rest should be
// listed in descending tier performance. Kind i addresses heaps[i].
func NewMemkindHierarchy(space *Space, heaps []HeapSpec) (*Memkind, error) {
	return NewMemkindHierarchyPooled(space, heaps, nil)
}

// NewMemkindHierarchyPooled is NewMemkindHierarchy with arena reuse:
// prev — the facade of a completed earlier run, typically held by an
// engine.Pool — donates its Arena objects index-for-index, each Reset
// over the new run's segment so free-list slices and live maps keep
// their capacity. Segments are still registered fresh in space (the
// new run's page table needs the coarse ranges), and a reset arena is
// byte-for-byte equivalent to a new one, so the pooled facade behaves
// identically to an unpooled build. prev may be nil or have a
// different heap count; only overlapping indices are reused.
func NewMemkindHierarchyPooled(space *Space, heaps []HeapSpec, prev *Memkind) (*Memkind, error) {
	if len(heaps) == 0 {
		return nil, fmt.Errorf("alloc: memkind needs at least one heap")
	}
	mk := &Memkind{
		arenas: make([]*Arena, len(heaps)),
		specs:  append([]HeapSpec(nil), heaps...),
		space:  space,
	}
	for i, h := range heaps {
		k := Kind(i)
		segName := "heap-default"
		if i > 0 {
			if i == 1 {
				segName = "heap-hbw"
			} else {
				segName = "heap-" + h.Tier.Name
			}
		}
		seg, err := space.AddSegment(segName, h.Size, h.Tier.ID)
		if err != nil {
			return nil, err
		}
		if prev != nil && i < len(prev.arenas) {
			a := prev.arenas[i]
			a.Reset(seg)
			mk.arenas[k] = a
		} else {
			mk.arenas[k] = NewArena(seg)
		}
		mk.order = append(mk.order, k)
	}
	mk.byPerf = append([]Kind(nil), mk.order...)
	// Stable insertion sort by descending placement priority (the
	// effective perf when the caller supplies it): kinds are few.
	for i := 1; i < len(mk.byPerf); i++ {
		for j := i; j > 0 && mk.specs[mk.byPerf[j]].perf() > mk.specs[mk.byPerf[j-1]].perf(); j-- {
			mk.byPerf[j], mk.byPerf[j-1] = mk.byPerf[j-1], mk.byPerf[j]
		}
	}
	// Precompute every kind's fallback chain once: the chains are
	// consulted per interposed allocation, and rebuilding them there
	// would put a slice allocation on the malloc fast path.
	mk.chains = make([][]Kind, len(heaps))
	for i := range heaps {
		k := Kind(i)
		perf := mk.specs[k].perf()
		chain := []Kind{k}
		for _, o := range mk.byPerf {
			if o != k && mk.specs[o].perf() < perf {
				chain = append(chain, o)
			}
		}
		mk.chains[k] = chain
	}
	return mk, nil
}

// BindPages rebinds the pages of [addr+offset, addr+offset+size) to
// tier — the simulated mbind(2) used by partitioned placement and the
// online placer to move data without changing its address. The caller
// is responsible for capacity accounting.
func (mk *Memkind) BindPages(addr uint64, offset, size int64, tier mem.TierID) {
	mk.space.PageTable().SetRange(addr+uint64(offset), size, tier)
}

// DefaultHeapSize is a comfortable default-heap reservation covering
// every workload in the evaluation.
const DefaultHeapSize = 32 * units.GB

// Malloc allocates size bytes from kind's heap.
func (mk *Memkind) Malloc(kind Kind, size int64) (uint64, error) {
	if int(kind) >= len(mk.arenas) {
		return 0, fmt.Errorf("alloc: unknown kind %v", kind)
	}
	return mk.arenas[kind].Malloc(size)
}

// MallocFallback allocates from kind's heap, walking down to each
// strictly slower tier's heap when capacity runs out — the overflow
// chain of an N-tier node, where a full DDR spills cold data to
// NVM/CXL instead of failing. It returns the kind that served the
// allocation. Faster tiers are never consulted: falling UP would
// silently promote, which is a placement decision, not an OOM fix.
func (mk *Memkind) MallocFallback(kind Kind, size int64) (uint64, Kind, error) {
	chain, err := mk.FallbackChain(kind)
	if err != nil {
		return 0, kind, err
	}
	var lastErr error
	for _, k := range chain {
		addr, err := mk.arenas[k].Malloc(size)
		if err == nil {
			return addr, k, nil
		}
		lastErr = err
	}
	return 0, kind, lastErr
}

// FallbackChain returns kind followed by every kind whose heap is
// strictly slower, in descending placement-priority order. With
// effective (distance-derated) priorities the chain is the
// distance-ordered spill of a NUMA node: a site bound to a near tier
// falls to the nearest next-best heap, and a remote raw-fast heap
// slots wherever its effective perf puts it. The returned slice is the
// precomputed chain shared by every caller — do not mutate it.
func (mk *Memkind) FallbackChain(kind Kind) ([]Kind, error) {
	if int(kind) >= len(mk.chains) {
		return nil, fmt.Errorf("alloc: unknown kind %v", kind)
	}
	return mk.chains[kind], nil
}

// Free releases addr, routing to whichever heap owns it.
func (mk *Memkind) Free(addr uint64) error {
	for _, k := range mk.order {
		if mk.arenas[k].InSegment(addr) {
			return mk.arenas[k].Free(addr)
		}
	}
	return fmt.Errorf("%w: %#x not in any heap", ErrBadFree, addr)
}

// ReallocFallback resizes addr within its owning heap. When that heap
// is out of memory the block spills: it is reallocated down
// KindDefault's fallback chain, as MallocFallback would place a fresh
// allocation, and the old block is freed. addr==0 allocates as C
// realloc(NULL, n) does, through the same chain. It returns the kind
// that serves the block: the owning kind when the resize stayed in
// place.
func (mk *Memkind) ReallocFallback(addr uint64, size int64) (uint64, Kind, error) {
	if addr == 0 {
		return mk.MallocFallback(KindDefault, size)
	}
	k, ok := mk.KindOf(addr)
	if !ok {
		return 0, 0, fmt.Errorf("%w: realloc %#x not in any heap", ErrBadFree, addr)
	}
	na, err := mk.arenas[k].Realloc(addr, size)
	if !errors.Is(err, ErrOutOfMemory) {
		return na, k, err
	}
	na, served, err := mk.MallocFallback(KindDefault, size)
	if err != nil {
		return 0, k, err
	}
	if err := mk.arenas[k].Free(addr); err != nil {
		return 0, k, err
	}
	return na, served, nil
}

// KindOf returns the kind whose heap segment contains addr.
func (mk *Memkind) KindOf(addr uint64) (Kind, bool) {
	for _, k := range mk.order {
		if mk.arenas[k].InSegment(addr) {
			return k, true
		}
	}
	return 0, false
}

// Kinds returns every configured kind in heap-list order (default
// first).
func (mk *Memkind) Kinds() []Kind { return mk.order }

// TierOf returns the memory tier behind kind.
func (mk *Memkind) TierOf(kind Kind) (mem.TierID, bool) {
	if int(kind) >= len(mk.specs) {
		return 0, false
	}
	return mk.specs[kind].Tier.ID, true
}

// KindForName returns the kind whose backing tier carries name — how
// advisor reports (which speak tier names) are resolved against the
// machine's heaps.
func (mk *Memkind) KindForName(name string) (Kind, bool) {
	for _, k := range mk.order {
		if mk.specs[k].Tier.Name == name {
			return k, true
		}
	}
	return 0, false
}

// FastestKind returns the kind backed by the highest-performance tier.
func (mk *Memkind) FastestKind() Kind { return mk.byPerf[0] }

// Arena exposes the arena behind kind (stats, invariants), nil for
// unknown kinds.
func (mk *Memkind) Arena(kind Kind) *Arena {
	if int(kind) >= len(mk.arenas) {
		return nil
	}
	return mk.arenas[kind]
}
