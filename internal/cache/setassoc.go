// Package cache simulates the cache hierarchy that sits between the
// simulated cores and the memory tiers: a set-associative L1 and
// last-level cache (the Xeon Phi L2, whose misses PEBS samples), plus
// the direct-mapped MCDRAM memory-side cache that models the
// processor's "cache mode".
//
// The LLC is what turns raw access streams into the per-object miss
// counts the whole framework reasons about, so its behaviour — capacity
// misses for large working sets, conflict misses in the direct-mapped
// MCDRAM cache — is what gives the evaluation its shape.
package cache

import "fmt"

// SetAssoc is a set-associative cache with true-LRU replacement.
//
// Recency is tracked per set as a packed permutation of way indices —
// one nibble per way, most-recently-used in the low nibble — so a hit
// reorders with a few shifts and a miss evicts the top nibble's way
// with a single rotate, instead of memmove-shifting the tag array
// itself on every access (the former hot spot of the whole simulator:
// an MRU-ordered tag array pays an O(ways) copy per access). Tags are
// therefore slot-indexed and never move once installed. The packed
// form limits the fast path to 16 ways; wider caches (none of the
// shipped machines) fall back to the classic MRU-ordered tag array.
type SetAssoc struct {
	name      string
	lineShift uint
	setMask   uint64
	ways      int
	// tags is sets*ways entries; tag 0 means empty, stored tags are
	// line-number+1. With order != nil entries are slot-indexed; in the
	// wide-way fallback index 0 of a set is most recently used.
	tags []uint64
	// order holds one packed LRU word per set: ways nibbles, the way
	// index of the MRU way in bits 0-3 up to the LRU way in the top
	// nibble. nil when ways > 16 (fallback path).
	order     []uint64
	orderMask uint64 // low 4*ways bits
	initOrder uint64 // identity permutation, the post-Reset state

	// sent holds one stamp per set for the single-pass kernel
	// (Hierarchy.streamRun): gen<<8 | n, where n counts the lines call
	// gen sent to the set. Generations only grow, so a stale stamp
	// compares below the current call's base gen<<8 and reads as 0;
	// no call clears the array.
	sent []uint64
	// floor holds, per set, the floor the current single-pass call took
	// when it sent the set its first line (probe): the smallest tag then
	// resident above that line, or one past the call's last tag. It is
	// written on every call's first line in a set, so a stale value is
	// never read. nil when ways > 16.
	floor   []uint64
	gen     uint64
	refills int // sets the current call stopped probing and not yet rebuilt
	unsat   int // sets the current call sent 1..ways lines: touched, not yet proving misses

	hits, misses int64
}

// maxPackedWays is the widest associativity the packed LRU word can
// express: 16 way indices of 4 bits fill a uint64 exactly.
const maxPackedWays = 16

// NewSetAssoc builds a cache of size bytes with the given associativity
// and line size. size must be an exact multiple of ways*lineSize and
// the resulting set count must be a power of two.
func NewSetAssoc(name string, size int64, ways int, lineSize int64) (*SetAssoc, error) {
	if ways <= 0 || lineSize <= 0 || size <= 0 {
		return nil, fmt.Errorf("cache %s: size, ways, lineSize must be positive", name)
	}
	if lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d not a power of two", name, lineSize)
	}
	sets := size / (int64(ways) * lineSize)
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a positive power of two (size=%d ways=%d line=%d)",
			name, sets, size, ways, lineSize)
	}
	shift := uint(0)
	for l := lineSize; l > 1; l >>= 1 {
		shift++
	}
	c := &SetAssoc{
		name:      name,
		lineShift: shift,
		setMask:   uint64(sets - 1),
		ways:      ways,
		tags:      make([]uint64, sets*int64(ways)),
		sent:      make([]uint64, sets),
	}
	if ways <= maxPackedWays {
		c.orderMask = ^uint64(0) >> (64 - 4*uint(ways))
		for w := 0; w < ways; w++ {
			c.initOrder |= uint64(w) << (4 * uint(w))
		}
		c.order = make([]uint64, sets)
		c.floor = make([]uint64, sets)
		for i := range c.order {
			c.order[i] = c.initOrder
		}
	}
	return c, nil
}

// Access looks addr up, updating LRU state and installing the line on a
// miss. It returns true on hit.
func (c *SetAssoc) Access(addr uint64) bool {
	line := addr >> c.lineShift
	set := line & c.setMask
	base := int(set) * c.ways
	tag := line + 1
	ts := c.tags[base : base+c.ways]
	if c.order == nil {
		return c.accessWide(ts, tag)
	}
	ord := c.order[set]
	// MRU fast path: consecutive hits to a hot line skip the scan and
	// leave the order word untouched.
	if ts[ord&0xf] == tag {
		c.hits++
		return true
	}
	for w, t := range ts {
		if t == tag {
			// Splice way w out of its nibble position and reinsert it
			// at the MRU (low) end.
			pos := 1
			for o := ord >> 4; o&0xf != uint64(w); o >>= 4 {
				pos++
			}
			low := ord & (uint64(1)<<(4*uint(pos)) - 1)
			high := ord &^ (uint64(1)<<(4*uint(pos+1)) - 1)
			c.order[set] = high | low<<4 | uint64(w)
			c.hits++
			return true
		}
	}
	// Miss: the LRU way sits in the top nibble; install there and
	// rotate it to the MRU end.
	victim := ord >> (4 * uint(c.ways-1))
	ts[victim] = tag
	c.order[set] = (ord<<4 | victim) & c.orderMask
	c.misses++
	return false
}

// accessWide is the ways>16 fallback: an MRU-ordered tag array shifted
// with copy, exactly the pre-packed-LRU implementation.
func (c *SetAssoc) accessWide(ts []uint64, tag uint64) bool {
	for i, t := range ts {
		if t == tag {
			copy(ts[1:i+1], ts[:i])
			ts[0] = tag
			c.hits++
			return true
		}
	}
	copy(ts[1:], ts[:c.ways-1])
	ts[0] = tag
	c.misses++
	return false
}

// addHits books n deterministic hits in bulk — the hierarchy's run
// batching proves a reference hits the MRU line (same line as the
// immediately preceding reference) without touching the set: such a
// hit would find its tag at the MRU position and leave the LRU order
// unchanged, so counting it is the only state change.
func (c *SetAssoc) addHits(n int64) { c.hits += n }

// beginStream opens a single-pass call and returns its base stamp
// gen<<8: a set's lines-sent count is max(sent[set], base) - base.
func (c *SetAssoc) beginStream() uint64 {
	c.gen++
	c.unsat = 0
	return c.gen << 8
}

// setSpan is the address span one way of the cache covers: an
// address's set repeats with the address modulo setSpan.
func (c *SetAssoc) setSpan() int64 { return int64(c.setMask+1) << c.lineShift }

// claim books line as sent to its set by the single-pass call with base
// stamp g. It reports whether the line must be probed (probe); false
// means the set already holds ways lines of the call, so the line is a
// proven miss, and claim counts it. The first proven miss of a set
// marks the set for refill (count ways+1). unsat counts the sets the
// call has touched but not yet marked. claim sits on the kernel's
// per-line path twice and must stay inlinable (CI checks it does), so
// the floor proof lives in probe.
func (c *SetAssoc) claim(line, g uint64) bool {
	s := line & c.setMask
	st := max(c.sent[s], g)
	w := uint64(c.ways)
	if st-g < w {
		if st == g {
			c.unsat++
		}
		c.sent[s] = st + 1
		return true
	}
	if st-g == w {
		c.sent[s] = st + 1
		c.refills++
		c.unsat--
	}
	c.misses++
	return false
}

// probe looks up, for the single-pass call with base stamp g and last
// tag last, a line that claim let through, and reports whether it hit.
// The call's lines ascend and are distinct, so while the call runs a
// set's lines above the call's first line there are exactly those it
// held when that line arrived, less the ones evicted since. The first
// line a set gets (stamp g+1) therefore scans the set once, both to
// find the line and to record the set's floor: the smallest resident
// tag above the line, capped at last+1. A later line below the floor
// cannot be resident — the call installed only lines below it, and the
// set held none between the first line and the floor — so it is
// installed at the MRU end without a tag scan, exactly as Access would
// after scanning in vain. Lines at or above the floor, and every line
// of a wide-way cache, take Access. A first line that hits ends the
// scan early, as Access would, and leaves floor 0: the set holds lines
// of the call's range, so every later line there is probed.
func (c *SetAssoc) probe(addr, g, last uint64) bool {
	if c.order == nil {
		return c.Access(addr)
	}
	line := addr >> c.lineShift
	s := line & c.setMask
	tag := line + 1
	if c.sent[s] == g+1 {
		// Offsets above tag, unsigned: t-tag-1 wraps past every offset
		// in the call for empty ways and lines below the line, so a
		// branch-free minimum finds the floor.
		base := int(s) * c.ways
		above := last - tag
		for w, t := range c.tags[base : base+c.ways] {
			if t == tag {
				// Access's splice: way w moves to the MRU end.
				c.floor[s] = 0
				ord := c.order[s]
				pos := 0
				for o := ord; o&0xf != uint64(w); o >>= 4 {
					pos++
				}
				low := ord & (uint64(1)<<(4*uint(pos)) - 1)
				high := ord &^ (uint64(1)<<(4*uint(pos+1)) - 1)
				c.order[s] = high | low<<4 | uint64(w)
				c.hits++
				return true
			}
			above = min(above, t-tag-1)
		}
		c.floor[s] = tag + 1 + above
	} else if tag >= c.floor[s] {
		return c.Access(addr)
	}
	ord := c.order[s]
	victim := ord >> (4 * uint(c.ways-1))
	c.tags[int(s)*c.ways+int(victim)] = tag
	c.order[s] = (ord<<4 | victim) & c.orderMask
	c.misses++
	return false
}

// refill is the end-of-call rebuild of the sets the single-pass call
// with base stamp g stopped probing. The caller hands it the call's
// lines newest first; refill writes the first ways lines that map to a
// marked set into its ways by recency (way k holds the k-th most
// recent line, the order word is the identity: MRU in way 0), counting
// the set's stamp up from ways+1 to 2*ways+1, and leaves every other
// set alone. Which way holds a line is not observable — lookups match
// tags, and replacement follows the order word — so the rebuilt set
// behaves exactly like the probed one.
func (c *SetAssoc) refill(line, g uint64) {
	s := line & c.setMask
	w := uint64(c.ways)
	k := c.sent[s] - g - (w + 1)
	if c.sent[s] < g+w+1 || k >= w {
		return
	}
	c.tags[int(s)*c.ways+int(k)] = line + 1
	if k == 0 && c.order != nil {
		c.order[s] = c.initOrder
	}
	c.sent[s]++
	if k+1 == w {
		c.refills--
	}
}

// Contains reports whether addr is resident without touching LRU state
// or statistics.
func (c *SetAssoc) Contains(addr uint64) bool {
	line := addr >> c.lineShift
	set := line & c.setMask
	base := int(set) * c.ways
	tag := line + 1
	for _, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return true
		}
	}
	return false
}

// Hits returns the number of hits observed.
func (c *SetAssoc) Hits() int64 { return c.hits }

// Misses returns the number of misses observed.
func (c *SetAssoc) Misses() int64 { return c.misses }

// Accesses returns hits+misses.
func (c *SetAssoc) Accesses() int64 { return c.hits + c.misses }

// Reset invalidates the whole cache and clears statistics.
func (c *SetAssoc) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
	}
	for i := range c.order {
		c.order[i] = c.initOrder
	}
	c.hits, c.misses = 0, 0
}

// Name returns the label given at construction.
func (c *SetAssoc) Name() string { return c.name }
