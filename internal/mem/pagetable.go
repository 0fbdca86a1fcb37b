package mem

import (
	"fmt"
	"sort"

	"repro/internal/units"
)

// PageTable maps simulated virtual pages to memory tiers. The default
// tier (DDR) is implicit: only pages explicitly placed elsewhere are
// stored, so the table stays small even for multi-gigabyte address
// spaces. Placement granularity is units.PageSize, matching the page
// granularity at which hmem_advisor packs its knapsacks.
//
// Two mapping layers exist: coarse ranges (whole heap/static/stack
// segments, possibly gigabytes) and per-page overrides. Lookups check
// pages first, then coarse ranges, then the default tier.
//
// The per-page layer is a two-level radix over page numbers rather
// than a hash map: the top level is a slice indexed by the page's high
// bits, each leaf a dense array of leafSize per-page entries (0 =
// absent, otherwise TierID+1). TierOf is the single hottest lookup of
// the simulator — every LLC miss resolves through it — and the radix
// turns it into two array indexes with no hashing and no allocation.
// The coarse layer keeps its sorted-range binary search but fronts it
// with a last-hit cache: demand streams touch the same segment for
// thousands of consecutive misses, so the common case is one bounds
// check against the cached range.
type PageTable struct {
	def    TierID
	leaves []*pageLeaf
	coarse []coarseRange // sorted by start, non-overlapping

	// entries counts live per-page overrides; placed breaks them out by
	// tier (including overrides EQUAL to the default tier, which exist
	// to shadow coarse ranges — see SetRange).
	entries int64
	placed  [256]int64

	// The fields below are the table's write-hot mutable state: every
	// TierOf that falls through to the coarse layer stores lastCoarse
	// and bumps lastHits, and every placement mutation bumps gen, while
	// def/leaves/coarse above are read-mostly once a run is set up. The
	// pad keeps this mutable state on its own cache line(s): parallel
	// sweep workers each own a private (pooled) PageTable, and the
	// separation guarantees a worker hammering its own lookup counters
	// never invalidates a line that also holds another allocation's
	// read-mostly words. Per-worker sharding proper happens one level
	// up — each cache.Hierarchy (one per sweep worker) keeps its own
	// extent-run cache and consults Gen to invalidate it, so workers
	// never contend on a shared table's last-hit state.
	_ [64]byte

	// lastCoarse is the extent fast path: the index of the coarse range
	// the previous lookup resolved to; lastHits counts how often it
	// short-circuits the binary search — a plain increment on the
	// simulator's hottest lookup, snapshotted into Result.Metrics.
	lastCoarse int
	lastHits   int64

	// gen counts placement mutations (SetRange, SetCoarseRange, Reset).
	// External lookup caches — the per-accessor extent→tier cache each
	// cache.Hierarchy keeps — compare it to invalidate: a cached
	// (extent, tier) pair is valid exactly while gen is unchanged.
	gen uint64
}

const (
	leafBits = 12 // pages per leaf: 4096 pages = 16 MB of address space
	leafSize = 1 << leafBits
	leafMask = leafSize - 1
)

// MaxAddr bounds the simulated address space: alloc.Space refuses a
// segment that would reach it, and cache.DirectMapped's 32-bit tags
// are exact for every address below it.
const MaxAddr = 1 << 48

// pageLeaf holds one radix leaf of per-page overrides. Entries are
// uint16 so every possible TierID (0..255) encodes as TierID+1 without
// wrapping; 0 means "no override".
type pageLeaf [leafSize]uint16

type coarseRange struct {
	start, end uint64 // [start, end)
	tier       TierID
}

// NewPageTable returns a table whose unmapped pages live on def.
func NewPageTable(def TierID) *PageTable {
	return &PageTable{def: def}
}

// SetCoarseRange binds the whole [addr, addr+size) range to tier with a
// single entry — used for segments, where a per-page map would be
// millions of entries. Re-binding an identical range replaces its tier;
// other overlaps are rejected to keep the structure simple.
func (pt *PageTable) SetCoarseRange(addr uint64, size int64, tier TierID) error {
	if size <= 0 {
		return fmt.Errorf("mem: coarse range size must be positive, got %d", size)
	}
	end := addr + uint64(size)
	pt.gen++
	for i := range pt.coarse {
		c := &pt.coarse[i]
		if addr == c.start && end == c.end {
			c.tier = tier
			return nil
		}
		if addr < c.end && c.start < end {
			return fmt.Errorf("mem: coarse range [%#x,%#x) overlaps [%#x,%#x)", addr, end, c.start, c.end)
		}
	}
	pt.coarse = append(pt.coarse, coarseRange{start: addr, end: end, tier: tier})
	sort.Slice(pt.coarse, func(i, j int) bool { return pt.coarse[i].start < pt.coarse[j].start })
	return nil
}

// coarseTier resolves addr against the coarse ranges: the cached
// last-hit range first, then a binary search for the first range whose
// end exceeds addr.
func (pt *PageTable) coarseTier(addr uint64) (TierID, bool) {
	if i := pt.lastCoarse; i < len(pt.coarse) {
		if c := &pt.coarse[i]; addr >= c.start && addr < c.end {
			pt.lastHits++
			return c.tier, true
		}
	}
	lo := pt.coarseIndexFor(addr)
	if lo < len(pt.coarse) && addr >= pt.coarse[lo].start {
		pt.lastCoarse = lo
		return pt.coarse[lo].tier, true
	}
	return 0, false
}

func pageOf(addr uint64) uint64 { return addr / uint64(units.PageSize) }

// setPage installs an explicit override for page p, growing the radix
// as needed.
func (pt *PageTable) setPage(p uint64, tier TierID) {
	li := p >> leafBits
	for uint64(len(pt.leaves)) <= li {
		pt.leaves = append(pt.leaves, nil)
	}
	leaf := pt.leaves[li]
	if leaf == nil {
		leaf = new(pageLeaf)
		pt.leaves[li] = leaf
	}
	if old := leaf[p&leafMask]; old != 0 {
		pt.placed[TierID(old-1)]--
	} else {
		pt.entries++
	}
	leaf[p&leafMask] = uint16(tier) + 1
	pt.placed[tier]++
}

// deletePage removes the explicit override for page p, if any.
func (pt *PageTable) deletePage(p uint64) {
	li := p >> leafBits
	if li >= uint64(len(pt.leaves)) {
		return
	}
	leaf := pt.leaves[li]
	if leaf == nil {
		return
	}
	if old := leaf[p&leafMask]; old != 0 {
		pt.placed[TierID(old-1)]--
		pt.entries--
		leaf[p&leafMask] = 0
	}
}

// SetRange places [addr, addr+size) on tier, page by page. Partial
// pages are placed whole, as real page tables must. For gigabyte-scale
// segment bindings use SetCoarseRange instead.
func (pt *PageTable) SetRange(addr uint64, size int64, tier TierID) {
	if size <= 0 {
		return
	}
	pt.gen++
	first := pageOf(addr)
	last := pageOf(addr + uint64(size) - 1)
	if tier != pt.def {
		for p := first; p <= last; p++ {
			pt.setPage(p, tier)
		}
		return
	}
	// Returning pages to the default tier: a page covered by a coarse
	// range must keep an explicit default-tier override (or the coarse
	// tier would leak back through), while uncovered pages drop their
	// entry entirely. The coarse check is hoisted out of the per-page
	// loop: with no coarse ranges the loop is pure deletion, and with
	// ranges the sorted, non-overlapping list is walked in lockstep
	// with the ascending page numbers instead of binary-searching per
	// page.
	if len(pt.coarse) == 0 {
		for p := first; p <= last; p++ {
			pt.deletePage(p)
		}
		return
	}
	ci := pt.coarseIndexFor(first * uint64(units.PageSize))
	for p := first; p <= last; p++ {
		a := p * uint64(units.PageSize)
		for ci < len(pt.coarse) && pt.coarse[ci].end <= a {
			ci++
		}
		if ci < len(pt.coarse) && a >= pt.coarse[ci].start {
			pt.setPage(p, tier)
		} else {
			pt.deletePage(p)
		}
	}
}

// coarseIndexFor returns the index of the first coarse range whose end
// exceeds addr (possibly len(coarse)).
func (pt *PageTable) coarseIndexFor(addr uint64) int {
	lo, hi := 0, len(pt.coarse)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pt.coarse[mid].end > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// TierOf returns the tier holding addr. No production caller: the
// access walk resolves tiers a run at a time through TierExtent; TierOf
// is the page-at-a-time reference the mem, alloc, cache and interpose
// tests check placements and TierExtent against.
func (pt *PageTable) TierOf(addr uint64) TierID {
	p := addr / uint64(units.PageSize)
	if li := p >> leafBits; li < uint64(len(pt.leaves)) {
		if leaf := pt.leaves[li]; leaf != nil {
			if v := leaf[p&leafMask]; v != 0 {
				return TierID(v - 1)
			}
		}
	}
	if t, ok := pt.coarseTier(addr); ok {
		return t
	}
	return pt.def
}

// maxExtentLeaves bounds the forward radix scan of one TierExtent
// query to 4 leaves (64 MB of address space). Extents are computed
// once per run of same-tier misses, so a capped (conservative) extent
// only costs one extra query per 64 MB streamed — while an uncapped
// scan over a multi-gigabyte promoted region would make a single
// query arbitrarily expensive.
const maxExtentLeaves = 4

// TierExtent returns the tier serving addr together with a maximal-
// within-bounds address extent [start, end) around addr over which
// TierOf is constant: start <= addr < end, and every address in the
// extent resolves to the same tier (at the current Gen). It is the
// batch form of TierOf: the hierarchy's miss path queries it once per
// run of same-tier misses and then serves every miss inside the
// extent with two compares, instead of one TierOf per miss. Extents
// are conservative — a scan cap or coarse-range boundary may end one
// early — never wrong.
func (pt *PageTable) TierExtent(addr uint64) (tier TierID, start, end uint64) {
	p := pageOf(addr)
	start = p * uint64(units.PageSize)
	if pt.entries != 0 {
		if li := p >> leafBits; li < uint64(len(pt.leaves)) {
			if leaf := pt.leaves[li]; leaf != nil {
				if v := leaf[p&leafMask]; v != 0 {
					// Page override: the extent is the run of pages
					// holding the same override value. Overrides are
					// page-granular, so the whole containing page is in.
					return TierID(v - 1), start, pt.overrideRunEnd(p, v)
				}
			}
		}
	}
	// No override on addr's page: the tier comes from the coarse layer
	// (or the default), and the extent is clipped by the nearest coarse
	// boundary in each direction plus the first overridden page at or
	// after p. Coarse ranges are byte-granular, so start/end may sit
	// mid-page.
	tier = pt.def
	end = ^uint64(0)
	if i := pt.coarseIndexFor(addr); i < len(pt.coarse) {
		c := &pt.coarse[i]
		if addr >= c.start {
			tier = c.tier
			end = c.end
			if c.start > start {
				start = c.start
			}
		} else {
			// In the default-tier gap before range i.
			end = c.start
			if i > 0 && pt.coarse[i-1].end > start {
				start = pt.coarse[i-1].end
			}
		}
	} else if n := len(pt.coarse); n > 0 && pt.coarse[n-1].end > start {
		start = pt.coarse[n-1].end
	}
	if pt.entries != 0 {
		if oe := pt.cleanRunEnd(p); oe < end {
			end = oe
		}
	}
	return tier, start, end
}

// overrideRunEnd returns the first byte past the run of pages starting
// at p whose override value equals v, scanning at most maxExtentLeaves
// radix leaves.
func (pt *PageTable) overrideRunEnd(p uint64, v uint16) uint64 {
	q := p + 1
	limit := ((p >> leafBits) + maxExtentLeaves) << leafBits
	for q < limit {
		li := q >> leafBits
		if li >= uint64(len(pt.leaves)) {
			break
		}
		leaf := pt.leaves[li]
		if leaf == nil || leaf[q&leafMask] != v {
			break
		}
		q++
	}
	return q * uint64(units.PageSize)
}

// cleanRunEnd returns the first byte of the first page at or after p+1
// that carries ANY per-page override, scanning at most maxExtentLeaves
// leaves (nil leaves are skipped wholesale). When no override can
// exist beyond the scanned region it returns the unbounded sentinel.
func (pt *PageTable) cleanRunEnd(p uint64) uint64 {
	q := p + 1
	maxLi := (p >> leafBits) + maxExtentLeaves
	for {
		li := q >> leafBits
		if li >= uint64(len(pt.leaves)) {
			// No leaf — and so no override — exists at or beyond q.
			return ^uint64(0)
		}
		if li >= maxLi {
			return q * uint64(units.PageSize)
		}
		leaf := pt.leaves[li]
		if leaf == nil {
			q = (li + 1) << leafBits
			continue
		}
		if leaf[q&leafMask] != 0 {
			return q * uint64(units.PageSize)
		}
		q++
	}
}

// PlacedBytes returns, per tier, how many bytes of non-default pages
// are currently mapped. Useful to audit that placement honoured budget.
func (pt *PageTable) PlacedBytes() map[TierID]int64 {
	out := make(map[TierID]int64)
	for t, n := range pt.placed {
		if n != 0 {
			out[TierID(t)] = n * units.PageSize
		}
	}
	return out
}

// ResetTo is Reset with a new default tier — how a pooled PageTable is
// rebound to the next run's machine.
func (pt *PageTable) ResetTo(def TierID) {
	pt.gen++
	pt.def = def
	if pt.entries != 0 {
		for _, leaf := range pt.leaves {
			if leaf != nil {
				*leaf = pageLeaf{}
			}
		}
	}
	pt.coarse = pt.coarse[:0]
	pt.lastCoarse = 0
	pt.lastHits = 0
	pt.entries = 0
	pt.placed = [256]int64{}
}

// CoarseLastHits returns how many coarse lookups the last-hit cache
// served without a binary search.
func (pt *PageTable) CoarseLastHits() int64 { return pt.lastHits }

// Gen returns the placement generation: it changes on every mutation,
// so an external cache holding (page, tier, gen) may serve lookups for
// the same page without re-walking the table while Gen is unchanged.
func (pt *PageTable) Gen() uint64 { return pt.gen }

// PlacedPages returns the number of live per-page overrides.
func (pt *PageTable) PlacedPages() int64 { return pt.entries }

// String summarizes the table.
func (pt *PageTable) String() string {
	placed := pt.PlacedBytes()
	return fmt.Sprintf("PageTable{default=%v, placed=%v}", pt.def, placed)
}
