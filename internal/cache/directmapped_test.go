package cache

import (
	"encoding/binary"
	"testing"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/units"
)

// emptyLeaf is what an absent leaf reads as.
var emptyLeaf dmLeaf

// sameSlots reports whether a and b hold the same tag in every slot,
// an absent leaf reading as a leaf of empty slots, so two caches whose
// leaves were allocated by different access orders still compare equal
// exactly when every slot does.
func sameSlots(a, b *DirectMapped) bool {
	if a.granShift != b.granShift || a.tagShift != b.tagShift || a.mask != b.mask {
		return false
	}
	for li := range a.leaves {
		la, lb := a.leaves[li], b.leaves[li]
		if la == nil {
			la = &emptyLeaf
		}
		if lb == nil {
			lb = &emptyLeaf
		}
		if *la != *lb {
			return false
		}
	}
	return true
}

// leafBytes is the memory the cache's leaves hold.
func leafBytes(c *DirectMapped) int64 {
	var n int64
	for _, leaf := range c.leaves {
		if leaf != nil {
			n += int64(unsafe.Sizeof(*leaf))
		}
	}
	return n
}

// dmCapacities are the front-cache sizes the differential fuzzer runs:
// the smallest the 32-bit tags allow, a small MCDRAM and KNL's 16 GB.
var dmCapacities = []int64{minDirectMappedBytes, 256 * units.MB, 16 * units.GB}

// FuzzDirectMappedVsMap runs programs of accesses, resets and reuse
// after a reset against a map model of the direct-mapped cache (slot ->
// block number) and fails on the first access whose hit or miss, or
// whose hit/miss counters, differ from the model's, and on any slot
// whose tag differs from the model's block after a step. Byte 0 picks
// the capacity (dmCapacities); each later op byte picks the next
// address, relative to the previous one so that conflicts (addresses a
// multiple of the capacity apart) and same-block re-accesses are as
// likely as fresh addresses. Every address is below mem.MaxAddr, the
// bound under which the tags are exact.
func FuzzDirectMappedVsMap(f *testing.F) {
	top := make([]byte, 8)
	binary.LittleEndian.PutUint64(top, mem.MaxAddr-1)
	for ci := range dmCapacities {
		c := byte(ci)
		f.Add(append([]byte{c, 0}, top[:6]...))                              // the highest address first
		f.Add(append(append([]byte{c, 0}, top[:6]...), 2, 0xff, 0xff, 3, 4)) // then its conflicts, a reset, a re-access
		f.Add([]byte{c, 1, 1, 2, 1, 1, 2, 1, 5, 0, 3, 1, 0, 4, 5, 1, 3, 2, 2, 0})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		capacity := dmCapacities[int(data[0])%len(dmCapacities)]
		c, err := NewDirectMapped(capacity, units.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		entries := uint64(capacity / units.PageSize)
		model := make(map[uint64]uint64) // slot -> block
		var hits, misses int64
		var addr uint64
		var seen []uint64
		rest := data[1:]
		next := func(n int) uint64 {
			var v uint64
			for i := 0; i < n && len(rest) > 0; i++ {
				v |= uint64(rest[0]) << (8 * i)
				rest = rest[1:]
			}
			return v
		}
		for step := 0; len(rest) > 0 && step < 256; step++ {
			op := rest[0]
			rest = rest[1:]
			switch op % 6 {
			case 0: // an absolute address
				addr = next(6)
			case 1: // a few pages on
				addr += next(1) * uint64(units.PageSize)
			case 2: // a conflict: whole capacities away, either way
				k := next(2)
				if k&1 != 0 {
					addr -= (k >> 1) * uint64(capacity)
				} else {
					addr += (k >> 1) * uint64(capacity)
				}
			case 3: // reset, then reuse the cache
				c.Reset()
				clear(model)
				hits, misses = 0, 0
				continue
			case 4: // an earlier address again
				if len(seen) > 0 {
					addr = seen[next(1)%uint64(len(seen))]
				}
			case 5: // same page, another byte
				addr = addr&^uint64(units.PageSize-1) | next(2)%uint64(units.PageSize)
			}
			addr %= mem.MaxAddr
			seen = append(seen, addr)
			block := addr / uint64(units.PageSize)
			slot := block % entries
			got, ok := model[slot]
			want := ok && got == block
			if want {
				hits++
			} else {
				misses++
			}
			model[slot] = block
			if hit := c.Access(addr); hit != want {
				t.Fatalf("capacity %d, step %d: Access(%#x) = %v, model %v", capacity, step, addr, hit, want)
			}
			if c.Hits() != hits || c.Misses() != misses {
				t.Fatalf("capacity %d, step %d: hits/misses %d/%d, model %d/%d", capacity, step, c.Hits(), c.Misses(), hits, misses)
			}
		}
		// Every slot: the model's block's tag where it has one, empty
		// elsewhere.
		want, _ := NewDirectMapped(capacity, units.PageSize)
		for _, block := range model {
			want.Access(block * uint64(units.PageSize))
		}
		if !sameSlots(c, want) {
			t.Fatalf("capacity %d: slots differ from the model's %d filled slots", capacity, len(model))
		}
		for slot, block := range model {
			leaf := c.leaves[slot>>dmLeafBits]
			if leaf == nil || leaf[slot&dmLeafMask] != uint32(block*uint64(units.PageSize)/uint64(capacity))+1 {
				t.Fatalf("capacity %d: slot %d does not hold block %#x", capacity, slot, block)
			}
		}
	})
}

// TestDirectMappedLeafMemory guards the first-touch leaves: the
// seq-singlepass-cachemode row of BenchmarkAccessRun, a 16 MB line
// pass on DefaultKNL's 16 GB front cache, fills 4,096 of its 4M slots
// and must allocate under 1 MiB of leaves (a dense tag array is
// 16 MiB of uint32s), and the same pass after a reset must allocate
// nothing, as a pooled worker's next cell does.
func TestDirectMappedLeafMemory(t *testing.T) {
	m := mem.DefaultKNL()
	m.Mode = mem.CacheMode
	base, span := uint64(1)<<32, 16*units.MB
	pt := mem.NewPageTable(mem.TierDDR)
	if err := pt.SetCoarseRange(base, 32*units.MB, mem.TierDDR); err != nil {
		t.Fatal(err)
	}
	h, err := NewHierarchy(&m, pt)
	if err != nil {
		t.Fatal(err)
	}
	pass := func() {
		h.AccessRun(base, 256, span, 1<<16)
		h.DrainPhase(4)
	}
	pass()
	mc := h.MCDRAMCache()
	if mc.Misses() != span/units.PageSize {
		t.Fatalf("pass missed %d pages of the front cache, want %d", mc.Misses(), span/units.PageSize)
	}
	if n := leafBytes(mc); n >= units.MB {
		t.Errorf("pass allocated %d bytes of leaves, want < 1 MiB", n)
	}
	if n := int64(len(mc.leaves)) * int64(unsafe.Sizeof(mc.leaves[0])); n >= units.MB {
		t.Errorf("leaf directory holds %d bytes, want < 1 MiB", n)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		h.ResetCaches()
		pass()
	}); allocs != 0 {
		t.Errorf("pass after Reset allocated %v times, want 0", allocs)
	}
	if mc.Hits()+mc.Misses() != span/256 || leafBytes(mc) >= units.MB {
		t.Errorf("pass after Reset: %d front-cache accesses, %d leaf bytes", mc.Hits()+mc.Misses(), leafBytes(mc))
	}
}
