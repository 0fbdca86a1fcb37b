package engine

import (
	"repro/internal/alloc"
	"repro/internal/cache"
	"repro/internal/mem"
)

// Pool caches the expensive per-run simulator state — the radix page
// table's leaf arrays, the cache hierarchy's tag arrays (megabytes of
// front-cache leaves for a cache-mode run), and the allocator arenas'
// free lists and live maps — across the runs one sweep worker
// executes. Every pooled structure is reset to its freshly-constructed
// state before reuse, so a pooled run is bit-identical to an unpooled
// one (pinned by the sweep serial/parallel invariance suite and the
// pooled-equivalence tests); pooling only removes the allocation and
// zeroing churn of rebuilding the same multi-megabyte structures for
// every grid cell.
//
// A Pool is NOT safe for concurrent use: RunSweep keeps exactly one
// per worker, which also shards the page table's mutable last-hit
// state per worker — no two workers ever touch the same table.
// A nil *Pool is valid everywhere and simply builds fresh state.
type Pool struct {
	pt      *mem.PageTable
	flat    *cache.Hierarchy
	cacheMd *cache.Hierarchy
	mk      *alloc.Memkind
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// pageTable returns a page table with default tier def: the pooled one
// reset in place when available, a fresh one otherwise.
func (p *Pool) pageTable(def mem.TierID) *mem.PageTable {
	if p == nil {
		return mem.NewPageTable(def)
	}
	if p.pt == nil {
		p.pt = mem.NewPageTable(def)
	} else {
		p.pt.ResetTo(def)
	}
	return p.pt
}

// hierarchy returns a cache hierarchy bound to machine and pt, reusing
// the pooled one of the machine's mode when its geometry matches. Flat
// and cache-mode hierarchies are pooled separately because a sweep
// routinely interleaves both (the cache-mode baseline cell between
// flat cells) and their structures are incompatible.
func (p *Pool) hierarchy(machine *mem.Machine, pt *mem.PageTable) (*cache.Hierarchy, error) {
	if p == nil {
		return cache.NewHierarchy(machine, pt)
	}
	slot := &p.flat
	if machine.Mode == mem.CacheMode {
		slot = &p.cacheMd
	}
	if *slot != nil && (*slot).Reuse(machine, pt) {
		return *slot, nil
	}
	h, err := cache.NewHierarchy(machine, pt)
	if err != nil {
		return nil, err
	}
	*slot = h
	return h, nil
}

// memkind builds the run's heap facade, donating the previous run's
// arenas for in-place reuse when the heap shapes line up (see
// alloc.NewMemkindHierarchyPooled).
func (p *Pool) memkind(space *alloc.Space, heaps []alloc.HeapSpec) (*alloc.Memkind, error) {
	if p == nil {
		return alloc.NewMemkindHierarchy(space, heaps)
	}
	mk, err := alloc.NewMemkindHierarchyPooled(space, heaps, p.mk)
	if err != nil {
		return nil, err
	}
	p.mk = mk
	return mk, nil
}
