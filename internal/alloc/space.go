// Package alloc implements the simulated dynamic-memory substrate: a
// 64-bit virtual address space carved into per-tier segments, first-fit
// free-list arena allocators over those segments (the glibc malloc and
// memkind hbwmalloc stand-ins), and a memkind-style façade that routes
// allocation kinds to arenas and keeps the placement page table
// consistent.
//
// The paper's auto-hbwmalloc must route *real* allocation traffic
// between two independent allocators, respect a fast-memory capacity
// budget, keep per-allocator bookkeeping (who owns which pointer), and
// report statistics such as the high-water mark. All of that behaviour
// lives here.
package alloc

import (
	"fmt"

	"repro/internal/mem"
)

// Segment is a contiguous region of the simulated address space bound
// to one memory tier.
type Segment struct {
	Name string
	Base uint64
	Size int64
	Tier mem.TierID
}

// End returns one past the last byte of the segment.
func (s Segment) End() uint64 { return s.Base + uint64(s.Size) }

// Contains reports whether addr falls inside the segment.
func (s Segment) Contains(addr uint64) bool {
	return addr >= s.Base && addr < s.End()
}

// Space hands out non-overlapping segments of a simulated address
// space below mem.MaxAddr (2^48, the user half of x86-64's 48-bit
// virtual space) and records their tier in the page table. The bound
// is what keeps cache.DirectMapped's 32-bit tags exact.
type Space struct {
	next uint64
	pt   *mem.PageTable
}

// segmentGap keeps unrelated segments far apart so out-of-bounds
// accesses are guaranteed to fault in tests rather than alias.
const segmentGap = 1 << 32

// NewSpace returns an empty address space whose placements are recorded
// in pt. Addresses start well above zero so that nil/small pointers
// never alias a valid segment.
func NewSpace(pt *mem.PageTable) *Space {
	return &Space{next: 1 << 32, pt: pt}
}

// AddSegment reserves size bytes on tier and returns the segment. It
// refuses a segment that would end at or above mem.MaxAddr.
func (sp *Space) AddSegment(name string, size int64, tier mem.TierID) (Segment, error) {
	if size <= 0 {
		return Segment{}, fmt.Errorf("alloc: segment %q size must be positive, got %d", name, size)
	}
	if sp.next >= mem.MaxAddr || uint64(size) >= mem.MaxAddr-sp.next {
		return Segment{}, fmt.Errorf("alloc: segment %q of %d bytes at %#x would end at or above %#x", name, size, sp.next, uint64(mem.MaxAddr))
	}
	seg := Segment{Name: name, Base: sp.next, Size: size, Tier: tier}
	sp.next += uint64(size) + segmentGap
	if err := sp.pt.SetCoarseRange(seg.Base, seg.Size, tier); err != nil {
		return Segment{}, err
	}
	return seg, nil
}

// PageTable exposes the placement table the space maintains.
func (sp *Space) PageTable() *mem.PageTable { return sp.pt }
