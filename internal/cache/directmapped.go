package cache

import "fmt"

// DirectMapped models the MCDRAM memory-side cache of the Xeon Phi
// "cache mode": a direct-mapped cache in front of DDR, indexed by
// physical line/page number. Its lack of associativity is the
// documented weakness the paper's Figure 1 and Section II call out —
// workloads whose hot addresses conflict see DDR latency even though
// the cache is 16 GB.
type DirectMapped struct {
	granShift uint
	mask      uint64
	tags      []uint64 // tag 0 = empty; stored tag is block-number+1

	hits, misses int64
}

// NewDirectMapped builds a direct-mapped cache of capacity bytes with
// blocks of gran bytes. Both must be powers of two, capacity >= gran.
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
	shift := uint(0)
	for g := gran; g > 1; g >>= 1 {
		shift++
	}
	return &DirectMapped{
		granShift: shift,
		mask:      uint64(entries - 1),
		tags:      make([]uint64, entries),
	}, nil
}

// Access looks addr up, filling the slot on a miss. Returns true on hit.
func (c *DirectMapped) Access(addr uint64) bool {
	block := addr >> c.granShift
	idx := block & c.mask
	tag := block + 1
	if c.tags[idx] == tag {
		c.hits++
		return true
	}
	c.tags[idx] = tag
	c.misses++
	return false
}

// Hits returns the hit count.
func (c *DirectMapped) Hits() int64 { return c.hits }

// Misses returns the miss count.
func (c *DirectMapped) Misses() int64 { return c.misses }

// Reset invalidates the cache and clears statistics.
func (c *DirectMapped) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
	}
	c.hits, c.misses = 0, 0
}
