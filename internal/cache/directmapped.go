package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// DirectMapped models the MCDRAM memory-side cache of the Xeon Phi
// "cache mode": a direct-mapped cache in front of DDR, indexed by
// physical line/page number. Its lack of associativity is the
// documented weakness the paper's Figure 1 and Section II call out —
// workloads whose hot addresses conflict see DDR latency even though
// the cache is 16 GB.
//
// A slot holds a 32-bit tag, uint32(block>>idxBits)+1 with 0 for
// empty, where block is the address's block number and idxBits the
// log2 of the slot count; Access computes it as addr>>tagShift + 1,
// the address divided by the capacity. The tag is exact for every
// address below mem.MaxAddr as long as the capacity is at least
// minDirectMappedBytes: NewDirectMapped refuses smaller caches, and
// alloc.Space keeps every segment below mem.MaxAddr. The slots live in
// leaves of dmLeafSize, in the style of mem.PageTable's radix leaves,
// each allocated on the first fill of one of its slots: a run touches
// a small part of a 16 GB cache, and an absent leaf reads as empty.
type DirectMapped struct {
	granShift uint
	tagShift  uint // log2(capacity): addr>>tagShift == block>>idxBits
	mask      uint64
	leaves    []*dmLeaf // nil = every slot of the leaf empty

	hits, misses int64
}

const (
	dmLeafBits = 12 // slots per leaf: 4096 tags = 16 KB
	dmLeafSize = 1 << dmLeafBits
	dmLeafMask = dmLeafSize - 1
)

// dmLeaf holds one leaf of slot tags.
type dmLeaf [dmLeafSize]uint32

// minDirectMappedBytes is the smallest capacity whose 32-bit tags are
// exact below mem.MaxAddr: the MaxAddr/capacity blocks that share a
// slot need a tag each besides the empty tag 0, so MaxAddr/capacity
// must be at most 2^32-1, and with capacity a power of two that makes
// it 128 KB. At 64 KB it is 2^32, one too many: the top 64 KB below
// MaxAddr would read as a hit on an empty slot.
const minDirectMappedBytes = mem.MaxAddr >> 31

// NewDirectMapped builds a direct-mapped cache of capacity bytes with
// blocks of gran bytes. Both must be powers of two, capacity >= gran,
// and capacity >= minDirectMappedBytes.
func NewDirectMapped(capacity, gran int64) (*DirectMapped, error) {
	if capacity <= 0 || gran <= 0 || capacity%gran != 0 {
		return nil, fmt.Errorf("cache: capacity %d must be a positive multiple of granularity %d", capacity, gran)
	}
	if gran&(gran-1) != 0 {
		return nil, fmt.Errorf("cache: granularity %d not a power of two", gran)
	}
	entries := capacity / gran
	if entries&(entries-1) != 0 {
		return nil, fmt.Errorf("cache: entry count %d not a power of two", entries)
	}
	if capacity < minDirectMappedBytes {
		return nil, fmt.Errorf("cache: capacity %d below %d: 32-bit tags cannot tell every address below %#x apart", capacity, minDirectMappedBytes, uint64(mem.MaxAddr))
	}
	return &DirectMapped{
		granShift: uint(bits.TrailingZeros64(uint64(gran))),
		tagShift:  uint(bits.TrailingZeros64(uint64(capacity))),
		mask:      uint64(entries - 1),
		leaves:    make([]*dmLeaf, max(1, entries>>dmLeafBits)),
	}, nil
}

// Access looks addr up, filling the slot on a miss. Returns true on hit.
// It must stay inlinable (CI checks that missLine inlines it); with the
// leaf check and allocation it costs exactly the inliner's budget of
// 80. Masking the shift counts with 63 (both are below 64) lets the
// compiler drop its guard for shifts past 63.
func (c *DirectMapped) Access(addr uint64) bool {
	idx := addr >> (c.granShift & 63) & c.mask
	leaf := c.leaves[idx>>dmLeafBits]
	if leaf == nil {
		leaf = new(dmLeaf)
		c.leaves[idx>>dmLeafBits] = leaf
	}
	tag := uint32(addr>>(c.tagShift&63)) + 1
	if leaf[idx&dmLeafMask] == tag {
		c.hits++
		return true
	}
	leaf[idx&dmLeafMask] = tag
	c.misses++
	return false
}

// Hits returns the hit count.
func (c *DirectMapped) Hits() int64 { return c.hits }

// Misses returns the miss count.
func (c *DirectMapped) Misses() int64 { return c.misses }

// Reset invalidates the cache and clears statistics. It clears the
// leaves that exist and keeps them, so a reused cache allocates only
// for slots no earlier run touched.
func (c *DirectMapped) Reset() {
	for _, leaf := range c.leaves {
		if leaf != nil {
			clear(leaf[:])
		}
	}
	c.hits, c.misses = 0, 0
}
