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

	// live and ahead hold the single-pass kernel's per-set state
	// (Hierarchy.streamRun, SetAssoc.stream): live[s] is stamp | mask,
	// where stamp is the call that last sent set s a line and mask marks
	// the set's live ways, those still holding a tag the call has yet to
	// reach; ahead[s] lists the live ways by ascending tag, one nibble
	// each, the lowest in bits 0-3. Stamps only grow, so a set whose
	// stamp is older than the current call's reads as not yet reached
	// and no call clears the arrays. nil when ways > 16.
	live, ahead []uint64
	stamp       uint64 // the current call's stamp: its number << 16
	last        uint64 // the current call's last tag
	pending     int    // sets the current call reached that still have live ways

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
		lineShift: shift,
		setMask:   uint64(sets - 1),
		ways:      ways,
		tags:      make([]uint64, sets*int64(ways)),
	}
	if ways <= maxPackedWays {
		c.orderMask = ^uint64(0) >> (64 - 4*uint(ways))
		for w := 0; w < ways; w++ {
			c.initOrder |= uint64(w) << (4 * uint(w))
		}
		c.order = make([]uint64, sets)
		c.live = make([]uint64, sets)
		c.ahead = make([]uint64, sets)
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
			c.order[set] = cut(ord, uint64(w))<<4 | uint64(w) // way w to the MRU end
			c.hits++
			return true
		}
	}
	c.fill(set, tag)
	c.misses++
	return false
}

// fill installs tag in set s as a miss does, without counting it: the
// LRU way sits in the top nibble of the order word, takes the tag and
// rotates to the MRU end. It returns that way. fill is the one install
// of every packed-LRU path — Access's miss, the single-pass kernel's
// and its tail's replay — and must stay inlinable (CI checks it does).
func (c *SetAssoc) fill(s, tag uint64) uint64 {
	ord := c.order[s]
	victim := ord >> (4 * uint(c.ways-1))
	c.tags[int(s)*c.ways+int(victim)] = tag
	c.order[s] = (ord<<4 | victim) & c.orderMask
	return victim
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

// beginStream opens a single-pass call whose last line has tag last.
func (c *SetAssoc) beginStream(last uint64) {
	c.stamp, c.last, c.pending = c.stamp+1<<16, last, 0
}

// period is the period of the set sequence of a walk with stride step:
// an address's set repeats with the address modulo the span one way of
// the cache covers, so any span/gcd(step, span) consecutive references
// visit every set the walk ever will.
func (c *SetAssoc) period(step int64) int64 {
	span := int64(c.setMask+1) << c.lineShift
	return span / min(span, step&-step)
}

// stream looks up line for the current single-pass call and reports
// whether it hit; the call's lines ascend and are distinct. Only a live
// way — one holding, when the call first reached the set, a tag from
// that line up to the call's last — can hold a line of the call, and
// only the lowest one: live ways below the line have been passed, and
// the call's own lines all lie below it. Passed and evicted live ways
// drop off, so a set without live ways misses with no scan. A wide-way
// packed-LRU caches only.
func (c *SetAssoc) stream(line uint64) bool {
	s, tag := line&c.setMask, line+1
	m := c.live[s]
	if m == c.stamp { // reached, no live ways
		c.fill(s, tag)
		c.misses++
		return false
	}
	if m < c.stamp {
		m = c.scan(s, tag)
	}
	live, a := m&0xffff, c.ahead[s]
	hit := false
	for live != 0 {
		w := a & 0xf
		t := c.tags[int(s)*c.ways+int(w)]
		if t > tag {
			break
		}
		a >>= 4
		live &^= 1 << w
		if hit = t == tag; hit {
			c.order[s] = cut(c.order[s], w)<<4 | w
			break
		}
	}
	if hit {
		c.hits++
	} else {
		if v := c.fill(s, tag); live&(1<<v) != 0 {
			live &^= 1 << v
			a = cut(a, v)
		}
		c.misses++
	}
	if live == 0 && m != c.stamp {
		c.pending--
	}
	c.live[s], c.ahead[s] = c.stamp|live, a
	return hit
}

// scan opens set s for the current call at its first line there, tag:
// it returns the set's live word, marking live the ways whose tag lies
// in [tag, last], and lists them in ahead[s] by ascending tag. It
// visits the ways from LRU to MRU, so the lines of an earlier ascending
// pass arrive in tag order and each is appended.
func (c *SetAssoc) scan(s, tag uint64) uint64 {
	ts := c.tags[int(s)*c.ways : int(s+1)*c.ways]
	ord, span := c.order[s], c.last-tag
	var live, a, top uint64
	n := uint(0)
	for k := 4 * uint(c.ways-1); k < 64; k -= 4 {
		w := ord >> k & 0xf
		t := ts[w]
		if t-tag > span { // unsigned: empty ways and tags below wrap
			continue
		}
		live |= 1 << w
		j := n
		for t < top && j > 0 && ts[a>>(4*j-4)&0xf] > t {
			j--
		}
		top = max(top, t)
		low := a & (1<<(4*j) - 1)
		a = (a-low)<<4 | w<<(4*j) | low
		n++
	}
	c.ahead[s] = a
	if live != 0 {
		c.pending++
	}
	return c.stamp | live
}

// replay installs, uncounted and in order, the lines of references
// max(first, refs-ways*period)..refs-1 of a single-pass call at base +
// i*step whose references first..refs-1 all miss this cache. That
// leaves each set the call reaches its last ways lines in LRU order,
// the state the per-line loop leaves.
func (c *SetAssoc) replay(base uint64, step, first, refs int64) {
	for i := max(first, refs-int64(c.ways)*c.period(step)); i < refs; i++ {
		line := (base + uint64(i*step)) >> c.lineShift
		c.fill(line&c.setMask, line+1)
	}
}

// cut removes way w from the packed nibble list x, whose nibbles are
// distinct ways, lowest first: the nibbles above w's move down one.
func cut(x, w uint64) uint64 {
	k := uint(0)
	for x>>k&0xf != w {
		k += 4
	}
	return x>>(k+4)<<k | x&(1<<k-1)
}

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
