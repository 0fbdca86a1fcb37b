package alloc

import (
	"errors"
	"fmt"
	"sort"
)

// ErrOutOfMemory is returned when an arena cannot satisfy a request.
var ErrOutOfMemory = errors.New("alloc: out of memory")

// ErrBadFree is returned for frees of pointers the arena does not own.
var ErrBadFree = errors.New("alloc: free of unowned pointer")

// allocAlign is the allocation alignment, matching glibc's 16-byte
// malloc alignment rounded up to one cache line so simulated objects
// never share lines.
const allocAlign = 64

type freeBlock struct {
	addr uint64
	size int64
}

// Arena is a first-fit free-list allocator over one segment. It is the
// simulated analog of one malloc implementation instance: the default
// heap is one arena over a DDR segment; memkind's hbwmalloc is another
// arena over an MCDRAM segment.
type Arena struct {
	seg  Segment
	free []freeBlock // sorted by addr, coalesced
	live map[uint64]int64

	used, hwm                 int64
	nMalloc, nFree, nFailures int64

	// frontier is the highest address ever handed out; nReuse counts
	// allocations served below it, i.e. from previously freed space —
	// the recycling statistic Result.Metrics reports per run.
	frontier uint64
	nReuse   int64
}

// NewArena returns an allocator over seg with the whole segment free.
func NewArena(seg Segment) *Arena {
	return &Arena{
		seg:      seg,
		free:     []freeBlock{{addr: seg.Base, size: seg.Size}},
		live:     make(map[uint64]int64),
		frontier: seg.Base,
	}
}

// Reset re-initializes the arena over seg, byte-for-byte equivalent to
// NewArena(seg) except that the free-list slice and the live map keep
// their capacity. Pooled sweep workers (engine.Pool) reuse one arena
// per heap across the cells they execute instead of reallocating the
// bookkeeping for every run.
func (a *Arena) Reset(seg Segment) {
	a.seg = seg
	a.free = append(a.free[:0], freeBlock{addr: seg.Base, size: seg.Size})
	clear(a.live)
	a.used, a.hwm = 0, 0
	a.nMalloc, a.nFree, a.nFailures = 0, 0, 0
	a.frontier = seg.Base
	a.nReuse = 0
}

func alignUp(n int64) int64 {
	return (n + allocAlign - 1) &^ (allocAlign - 1)
}

// Malloc allocates size bytes and returns the simulated address.
// Zero-size requests allocate one aligned unit, as glibc does.
func (a *Arena) Malloc(size int64) (uint64, error) {
	if size < 0 {
		return 0, fmt.Errorf("alloc: negative size %d", size)
	}
	if size == 0 {
		size = 1
	}
	need := alignUp(size)
	for i := range a.free {
		if a.free[i].size >= need {
			addr := a.free[i].addr
			a.free[i].addr += uint64(need)
			a.free[i].size -= need
			if a.free[i].size == 0 {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			a.live[addr] = need
			a.used += need
			if a.used > a.hwm {
				a.hwm = a.used
			}
			a.nMalloc++
			if addr < a.frontier {
				a.nReuse++
			} else if end := addr + uint64(need); end > a.frontier {
				a.frontier = end
			}
			return addr, nil
		}
	}
	a.nFailures++
	return 0, fmt.Errorf("%w: %s needs %d bytes, %d free (fragmented into %d blocks)",
		ErrOutOfMemory, a.seg.Name, need, a.seg.Size-a.used, len(a.free))
}

// Free releases the allocation starting at addr.
func (a *Arena) Free(addr uint64) error {
	size, ok := a.live[addr]
	if !ok {
		return fmt.Errorf("%w: %#x in arena %s", ErrBadFree, addr, a.seg.Name)
	}
	delete(a.live, addr)
	a.used -= size
	a.nFree++
	a.insertFree(freeBlock{addr: addr, size: size})
	return nil
}

// insertFree adds blk to the sorted free list, coalescing neighbours.
func (a *Arena) insertFree(blk freeBlock) {
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].addr > blk.addr })
	a.free = append(a.free, freeBlock{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = blk
	// Coalesce with successor.
	if i+1 < len(a.free) && a.free[i].addr+uint64(a.free[i].size) == a.free[i+1].addr {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	// Coalesce with predecessor.
	if i > 0 && a.free[i-1].addr+uint64(a.free[i-1].size) == a.free[i].addr {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// Realloc resizes the allocation at addr to size, possibly moving it.
// Like C realloc, Realloc(0, size) behaves as Malloc.
func (a *Arena) Realloc(addr uint64, size int64) (uint64, error) {
	if addr == 0 {
		return a.Malloc(size)
	}
	old, ok := a.live[addr]
	if !ok {
		return 0, fmt.Errorf("%w: realloc of %#x", ErrBadFree, addr)
	}
	if alignUp(size) <= old {
		return addr, nil // shrink in place
	}
	na, err := a.Malloc(size)
	if err != nil {
		return 0, err
	}
	if err := a.Free(addr); err != nil {
		return 0, err
	}
	return na, nil
}

// SizeOf returns the rounded size of the live allocation at addr.
func (a *Arena) SizeOf(addr uint64) (int64, bool) {
	s, ok := a.live[addr]
	return s, ok
}

// InSegment reports whether addr falls anywhere inside the arena's
// segment (live or not) — the ownership test the interposer uses to
// route frees to the correct allocator.
func (a *Arena) InSegment(addr uint64) bool { return a.seg.Contains(addr) }

// HWM returns the high-water mark of Used over the arena's lifetime —
// the VmHWM-style statistic Table I and the Fig. 4 middle column report.
func (a *Arena) HWM() int64 { return a.hwm }

// Mallocs returns the cumulative successful allocation count.
func (a *Arena) Mallocs() int64 { return a.nMalloc }

// Frees returns the cumulative free count.
func (a *Arena) Frees() int64 { return a.nFree }

// Failures returns the number of allocation failures (OOM).
func (a *Arena) Failures() int64 { return a.nFailures }

// Reuses returns how many successful allocations were served from
// previously freed space (below the arena's all-time frontier).
func (a *Arena) Reuses() int64 { return a.nReuse }

// Exhaust converts the entire free list into one synthetic live
// allocation per free block and returns the bytes consumed. It models
// numactl -p 1's page-granular first-touch behaviour: once a large
// allocation overflows the fast tier, the remaining fast pages are
// consumed by that object's leading pages and are never available to
// later allocations.
func (a *Arena) Exhaust() int64 {
	var consumed int64
	for _, b := range a.free {
		a.live[b.addr] = b.size
		a.used += b.size
		consumed += b.size
	}
	a.free = a.free[:0]
	if a.used > a.hwm {
		a.hwm = a.used
	}
	return consumed
}
