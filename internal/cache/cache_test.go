package cache

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/units"
	"repro/internal/xrand"
)

func TestSetAssocConstructionErrors(t *testing.T) {
	cases := []struct {
		size, line int64
		ways       int
	}{
		{0, 64, 8}, {1024, 64, 0}, {1024, 0, 8},
		{1024, 48, 8},     // line not power of two
		{3 * 1024, 64, 8}, // sets not power of two (6 sets)
	}
	for _, c := range cases {
		if _, err := NewSetAssoc("x", c.size, c.ways, c.line); err == nil {
			t.Errorf("NewSetAssoc(%d,%d,%d) succeeded, want error", c.size, c.ways, c.line)
		}
	}
}

func TestSetAssocHitAfterMiss(t *testing.T) {
	c, err := NewSetAssoc("t", 4096, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0x100) {
		t.Fatal("first access must miss")
	}
	if !c.Access(0x100) {
		t.Fatal("second access must hit")
	}
	if !c.Access(0x13f) {
		t.Fatal("same-line access must hit")
	}
	if c.hits != 2 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", c.hits, c.Misses())
	}
}

func TestSetAssocLRUEviction(t *testing.T) {
	// 4-way cache, 1 set: size = 4 lines.
	c, err := NewSetAssoc("t", 4*64, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		c.Access(i * 64)
	}
	// Touch line 0 so line 1 is LRU.
	c.Access(0)
	// Insert a 5th line: must evict line 1.
	c.Access(4 * 64)
	if !c.Contains(0) {
		t.Error("recently used line 0 evicted")
	}
	if c.Contains(1 * 64) {
		t.Error("LRU line 1 not evicted")
	}
	if !c.Contains(4 * 64) {
		t.Error("new line not installed")
	}
}

func TestSetAssocWorkingSetFits(t *testing.T) {
	c, _ := NewSetAssoc("t", 64*units.KB, 8, 64)
	// A working set half the cache size: after warmup, everything hits.
	lines := (32 * units.KB) / 64
	for pass := 0; pass < 2; pass++ {
		for i := int64(0); i < lines; i++ {
			c.Access(uint64(i * 64))
		}
	}
	if c.Misses() != lines {
		t.Errorf("misses = %d, want only %d cold misses", c.Misses(), lines)
	}
}

func TestSetAssocCapacityThrash(t *testing.T) {
	c, _ := NewSetAssoc("t", 4*units.KB, 4, 64)
	// Working set 4x the cache: sequential sweep should miss ~always.
	lines := int64(4 * (4 * units.KB) / 64)
	for pass := 0; pass < 3; pass++ {
		for i := int64(0); i < lines; i++ {
			c.Access(uint64(i * 64))
		}
	}
	if rate := float64(c.hits) / float64(c.Accesses()); rate > 0.01 {
		t.Errorf("thrash hit rate = %v, want ~0", rate)
	}
}

func TestSetAssocInvariantHitsPlusMisses(t *testing.T) {
	c, _ := NewSetAssoc("t", 8*units.KB, 8, 64)
	r := xrand.New(5)
	f := func(n uint16) bool {
		c.Reset()
		count := int64(n%512) + 1
		for i := int64(0); i < count; i++ {
			c.Access(r.Uint64n(1 << 20))
		}
		return c.Accesses() == count && c.hits+c.Misses() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSetAssocMatchesLRUModel checks SetAssoc.Access — the packed LRU
// word at every width up to 16 ways and the wide-way fallback — against
// a textbook true-LRU model (one MRU-first slice per set): every
// hit/miss outcome and, after every access, the set's contents in
// recency order.
func TestSetAssocMatchesLRUModel(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 12, 16, 32} {
		c, err := NewSetAssoc("t", int64(ways)*16*64, ways, 64)
		if err != nil {
			t.Fatal(err)
		}
		model := make([][]uint64, 16)
		r := xrand.New(uint64(ways))
		for i := 0; i < 20000; i++ {
			// Mostly a small hot range (hits at every LRU depth),
			// sometimes a wide one (capacity misses).
			addr := r.Uint64n(uint64(ways) * 48 * 64)
			if i%3 == 0 {
				addr = r.Uint64n(1 << 30)
			}
			line := addr >> 6
			set := line & 15
			ms := model[set]
			hit := false
			for k, tag := range ms {
				if tag == line+1 {
					copy(ms[1:k+1], ms[:k])
					hit = true
					break
				}
			}
			if !hit {
				if len(ms) < ways {
					ms = append(ms, 0)
				}
				copy(ms[1:], ms)
			}
			ms[0] = line + 1
			model[set] = ms
			if got := c.Access(addr); got != hit {
				t.Fatalf("ways %d access %d (%#x): hit = %v, model %v", ways, i, addr, got, hit)
			}
			got := setRecency(c)[int(set)*ways : int(set+1)*ways]
			want := append(slices.Clone(ms), make([]uint64, ways-len(ms))...)
			if !slices.Equal(got, want) {
				t.Fatalf("ways %d access %d: set %d = %x, model %x", ways, i, set, got, want)
			}
		}
	}
}

func TestDirectMappedBasics(t *testing.T) {
	c, err := NewDirectMapped(32*units.PageSize, units.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0) {
		t.Fatal("cold access hit")
	}
	if !c.Access(100) { // same page
		t.Fatal("same-page access missed")
	}
	// Conflicting page: 32 pages away maps to the same slot.
	if c.Access(32 * uint64(units.PageSize)) {
		t.Fatal("conflicting page hit")
	}
	// Original page was evicted by the conflict.
	if c.Access(0) {
		t.Fatal("evicted page still hit")
	}
}

func TestDirectMappedConflictThrash(t *testing.T) {
	c, _ := NewDirectMapped(32*units.PageSize, units.PageSize)
	// Two pages 32 apart alternate: direct mapping thrashes 100%.
	a, b := uint64(0), uint64(32*units.PageSize)
	for i := 0; i < 100; i++ {
		c.Access(a)
		c.Access(b)
	}
	if c.Hits() != 0 {
		t.Errorf("conflict thrash produced %d hits, want 0", c.Hits())
	}
	if c.Misses() != 200 {
		t.Errorf("conflict thrash produced %d misses, want 200", c.Misses())
	}
}

func TestDirectMappedErrors(t *testing.T) {
	if _, err := NewDirectMapped(0, units.PageSize); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewDirectMapped(units.PageSize, 3000); err == nil {
		t.Error("non-power-of-two granularity accepted")
	}
	if _, err := NewDirectMapped(3*units.PageSize, units.PageSize); err == nil {
		t.Error("non-power-of-two entry count accepted")
	}
	// Below 128 KB the 32-bit tags cannot tell every address under
	// mem.MaxAddr apart: at 64 KB the top 64 KB would read as a hit on
	// an empty slot.
	for _, capacity := range []int64{units.PageSize, 64 * units.KB} {
		if _, err := NewDirectMapped(capacity, units.PageSize); err == nil {
			t.Errorf("capacity %d below minDirectMappedBytes accepted", capacity)
		}
	}
	if minDirectMappedBytes != 128*units.KB {
		t.Errorf("minDirectMappedBytes = %d, want 128 KB", minDirectMappedBytes)
	}
	if _, err := NewDirectMapped(minDirectMappedBytes, units.PageSize); err != nil {
		t.Errorf("capacity minDirectMappedBytes refused: %v", err)
	}
}

func testMachine() mem.Machine {
	m := mem.DefaultKNL()
	// Shrink caches so tests exercise misses quickly.
	m.LLC.Size = 64 * units.KB
	m.LLC.L1Size = 4 * units.KB
	return m
}

func TestHierarchyFlatModeRouting(t *testing.T) {
	m := testMachine()
	pt := mem.NewPageTable(mem.TierDDR)
	pt.SetRange(0x100000, units.PageSize, mem.TierMCDRAM)
	h, err := NewHierarchy(&m, pt)
	if err != nil {
		t.Fatal(err)
	}
	res := h.Access(0x100000)
	if res.Level != LevelMemory || res.Tier != mem.TierMCDRAM {
		t.Fatalf("placed page resolved to %v/%v", res.Level, res.Tier)
	}
	res = h.Access(0x900000)
	if res.Level != LevelMemory || res.Tier != mem.TierDDR {
		t.Fatalf("default page resolved to %v/%v", res.Level, res.Tier)
	}
	if h.PendingTraffic().Bytes(mem.TierMCDRAM) != m.LineSize {
		t.Error("MCDRAM traffic not accounted")
	}
}

func TestHierarchyLLCMissHook(t *testing.T) {
	m := testMachine()
	pt := mem.NewPageTable(mem.TierDDR)
	h, err := NewHierarchy(&m, pt)
	if err != nil {
		t.Fatal(err)
	}
	var missAddrs []uint64
	h.SetLLCMissHook(1, func(a uint64, _ int64) int64 {
		missAddrs = append(missAddrs, a)
		return 1
	})
	h.Access(0x42000)
	h.Access(0x42000) // L1 hit: no new miss
	if len(missAddrs) != 1 || missAddrs[0] != 0x42000 {
		t.Fatalf("miss hook saw %v, want [0x42000]", missAddrs)
	}
	if h.LLCMisses() != 1 {
		t.Errorf("LLC misses = %d, want 1", h.LLCMisses())
	}
}

func TestHierarchyCacheMode(t *testing.T) {
	m := testMachine()
	m.Mode = mem.CacheMode
	// Shrink MCDRAM so conflicts are reachable (1024-page cache).
	for i := range m.Tiers {
		if m.Tiers[i].ID == mem.TierMCDRAM {
			m.Tiers[i].Capacity = 1024 * units.PageSize
		}
	}
	pt := mem.NewPageTable(mem.TierDDR)
	h, err := NewHierarchy(&m, pt)
	if err != nil {
		t.Fatal(err)
	}
	if h.MCDRAMCache() == nil {
		t.Fatal("cache mode did not build MCDRAM cache")
	}
	// Target page 0x50123 maps to direct-mapped slot 0x123 (291); the
	// eviction sweep below covers slots 0..255 only, so the target
	// stays resident in the MCDRAM cache while leaving L1+LLC.
	const target = 0x50123 * uint64(units.PageSize)
	// First touch: LLC miss + MCDRAM-cache miss -> DDR + fill.
	res := h.Access(target)
	if res.Level != LevelMemory || res.Tier != mem.TierDDR {
		t.Fatalf("cold cache-mode access = %v/%v, want MEM/DDR", res.Level, res.Tier)
	}
	// Evict the line from L1+LLC by sweeping 256 pages (slots 0..255).
	for i := uint64(0); i < 1<<14; i++ {
		h.Access(0x100_0000 + i*64)
	}
	res = h.Access(target)
	if res.Level != LevelMCDRAMCache {
		t.Fatalf("warm cache-mode access = %v, want MCDRAM$", res.Level)
	}
}

func TestHierarchyCacheModeRequiresMCDRAM(t *testing.T) {
	m := testMachine()
	m.Mode = mem.CacheMode
	m.Tiers = m.Tiers[:1] // DDR only
	if _, err := NewHierarchy(&m, mem.NewPageTable(mem.TierDDR)); err == nil {
		t.Fatal("cache mode without MCDRAM accepted")
	}
}

func TestHierarchyDrainPhase(t *testing.T) {
	m := testMachine()
	pt := mem.NewPageTable(mem.TierDDR)
	h, _ := NewHierarchy(&m, pt)
	for i := uint64(0); i < 1000; i++ {
		h.Access(i * 64)
	}
	c1 := h.DrainPhase(4)
	if c1 <= 0 {
		t.Fatal("phase with traffic cost nothing")
	}
	if c2 := h.DrainPhase(4); c2 != 0 {
		t.Fatalf("second drain = %d, want 0 (accumulators reset)", c2)
	}
}

func TestHierarchyResetCaches(t *testing.T) {
	m := testMachine()
	h, _ := NewHierarchy(&m, mem.NewPageTable(mem.TierDDR))
	h.Access(0x1000)
	h.ResetCaches()
	if h.llc.Accesses() != 0 || h.l1.Accesses() != 0 {
		t.Error("ResetCaches did not clear statistics")
	}
	if h.l1.Contains(0x1000) {
		t.Error("ResetCaches did not invalidate lines")
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{LevelL1: "L1", LevelLLC: "LLC", LevelMCDRAMCache: "MCDRAM$", LevelMemory: "MEM", Level(9): "level(9)"} {
		if got := l.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", l, got, want)
		}
	}
}

func BenchmarkSetAssocAccess(b *testing.B) {
	c, _ := NewSetAssoc("b", units.MB, 16, 64)
	r := xrand.New(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = r.Uint64n(64 * uint64(units.MB))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095])
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
