package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestDefaultKNLValid(t *testing.T) {
	m := DefaultKNL()
	if err := m.Validate(); err != nil {
		t.Fatalf("DefaultKNL invalid: %v", err)
	}
	if m.Cores != 68 {
		t.Errorf("cores = %d, want 68", m.Cores)
	}
	mc, ok := m.Tier(TierMCDRAM)
	if !ok {
		t.Fatal("MCDRAM tier missing")
	}
	if mc.Capacity != 16*units.GB {
		t.Errorf("MCDRAM capacity = %d, want 16 GB", mc.Capacity)
	}
	if m.FastestTier().ID != TierMCDRAM {
		t.Errorf("fastest tier = %v, want MCDRAM", m.FastestTier().ID)
	}
	if m.SlowestTier().ID != TierDDR {
		t.Errorf("slowest tier = %v, want DDR", m.SlowestTier().ID)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	base := DefaultKNL()
	cases := []struct {
		name string
		mut  func(*Machine)
	}{
		{"zero clock", func(m *Machine) { m.ClockHz = 0 }},
		{"zero cores", func(m *Machine) { m.Cores = 0 }},
		{"bad line size", func(m *Machine) { m.LineSize = 48 }},
		{"no tiers", func(m *Machine) { m.Tiers = nil }},
		{"dup tier", func(m *Machine) { m.Tiers = append(m.Tiers, m.Tiers[0]) }},
		{"zero capacity", func(m *Machine) { m.Tiers[0].Capacity = 0 }},
		{"zero bandwidth", func(m *Machine) { m.Tiers[1].PeakBandwidth = 0 }},
	}
	for _, c := range cases {
		m := base
		m.Tiers = append([]TierSpec(nil), base.Tiers...)
		c.mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", c.name)
		}
	}
}

func TestEffectiveBandwidthSaturates(t *testing.T) {
	m := DefaultKNL()
	ddr, _ := m.Tier(TierDDR)
	if bw := ddr.EffectiveBandwidth(1); bw != ddr.PerCoreBandwidth {
		t.Errorf("1-core DDR bw = %v, want per-core %v", bw, ddr.PerCoreBandwidth)
	}
	if bw := ddr.EffectiveBandwidth(64); bw != ddr.PeakBandwidth {
		t.Errorf("64-core DDR bw = %v, want peak %v", bw, ddr.PeakBandwidth)
	}
	if bw := ddr.EffectiveBandwidth(0); bw != 0 {
		t.Errorf("0-core bw = %v, want 0", bw)
	}
	mc, _ := m.Tier(TierMCDRAM)
	if mc.EffectiveBandwidth(68) <= ddr.EffectiveBandwidth(68) {
		t.Error("MCDRAM at full cores should exceed DDR")
	}
}

func TestTierNaming(t *testing.T) {
	// Tier naming is the TierSpec's business, not the ID's: bare IDs
	// print a neutral label and Machine.TierName resolves the
	// configured name, so user-defined tiers diagnose correctly.
	if TierID(9).String() != "tier(9)" {
		t.Errorf("unknown tier string = %q", TierID(9).String())
	}
	if TierDDR.String() != "tier(0)" {
		t.Errorf("bare DDR id string = %q, want neutral label", TierDDR.String())
	}
	m := KNLOptane()
	if m.TierName(TierNVM) != "NVM" || m.TierName(TierMCDRAM) != "MCDRAM" {
		t.Errorf("TierName = %q/%q", m.TierName(TierNVM), m.TierName(TierMCDRAM))
	}
	if m.TierName(TierCXL) != "tier(4)" {
		t.Errorf("unconfigured tier name = %q", m.TierName(TierCXL))
	}
	custom := DefaultKNL()
	custom.Tiers[1].Name = "HBM-stack"
	if custom.TierName(TierMCDRAM) != "HBM-stack" {
		t.Errorf("user-defined tier name = %q", custom.TierName(TierMCDRAM))
	}
}

func TestThreeTierMachinesValidate(t *testing.T) {
	for _, m := range []Machine{KNLOptane(), HBMCXL()} {
		if err := m.Validate(); err != nil {
			t.Fatalf("machine invalid: %v", err)
		}
	}
	m := KNLOptane()
	if len(m.Tiers) != 3 {
		t.Fatalf("KNLOptane tiers = %d", len(m.Tiers))
	}
	// NVM is slower than DDR: the hierarchy must order it last.
	h := m.Hierarchy()
	if h[0].ID != TierMCDRAM || h[1].ID != TierDDR || h[2].ID != TierNVM {
		t.Fatalf("KNLOptane hierarchy = %v,%v,%v", h[0].ID, h[1].ID, h[2].ID)
	}
	if m.DefaultTier().ID != TierDDR {
		t.Fatalf("KNLOptane default = %v, want DDR", m.DefaultTier().ID)
	}
	slower := m.slowerTiers()
	if len(slower) != 1 || slower[0].ID != TierNVM {
		t.Fatalf("SlowerTiers = %+v, want just NVM", slower)
	}
	hx := HBMCXL()
	hh := hx.Hierarchy()
	if hh[0].ID != TierHBM || hh[1].ID != TierDDR || hh[2].ID != TierCXL {
		t.Fatalf("HBMCXL hierarchy = %v,%v,%v", hh[0].ID, hh[1].ID, hh[2].ID)
	}
	if hx.DefaultTier().ID != TierDDR {
		t.Fatalf("HBMCXL default = %v, want DDR", hx.DefaultTier().ID)
	}
}

func TestValidateThreeTierErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Machine)
	}{
		{"dup id", func(m *Machine) { m.Tiers[2].ID = m.Tiers[0].ID }},
		{"dup name", func(m *Machine) { m.Tiers[2].Name = m.Tiers[0].Name }},
		{"zero capacity nvm", func(m *Machine) { m.Tiers[2].Capacity = 0 }},
		{"zero perf", func(m *Machine) { m.Tiers[2].RelativePerf = 0 }},
		{"negative perf", func(m *Machine) { m.Tiers[1].RelativePerf = -1 }},
	}
	for _, c := range cases {
		m := KNLOptane()
		m.Tiers = append([]TierSpec(nil), m.Tiers...)
		c.mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", c.name)
		}
	}
}

func TestHierarchyHandlesUnsortedTiers(t *testing.T) {
	// Machine.Tiers may be listed in any order; Hierarchy imposes the
	// perf order and the original slice stays untouched.
	m := KNLOptane()
	m.Tiers = []TierSpec{m.Tiers[2], m.Tiers[0], m.Tiers[1]} // NVM, DDR, MCDRAM
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	h := m.Hierarchy()
	if h[0].ID != TierMCDRAM || h[2].ID != TierNVM {
		t.Fatalf("hierarchy of unsorted tiers = %v..%v", h[0].ID, h[2].ID)
	}
	if m.Tiers[0].ID != TierNVM {
		t.Fatal("Hierarchy mutated Machine.Tiers")
	}
	if m.FastestTier().ID != TierMCDRAM || m.SlowestTier().ID != TierNVM {
		t.Fatal("fastest/slowest wrong on unsorted tiers")
	}
}

func TestPerRankDividesEveryTier(t *testing.T) {
	node := KNLOptane()
	m := PerRank(node, 64, 4)
	if len(m.Tiers) != 3 {
		t.Fatalf("per-rank tiers = %d", len(m.Tiers))
	}
	for i, tr := range m.Tiers {
		if tr.Capacity != node.Tiers[i].Capacity/64 {
			t.Errorf("tier %q capacity = %d, want 1/64 of node", tr.Name, tr.Capacity)
		}
		if tr.PeakBandwidth != node.Tiers[i].PeakBandwidth/64 {
			t.Errorf("tier %q peak bw not divided", tr.Name)
		}
		if tr.PerCoreBandwidth != node.Tiers[i].PerCoreBandwidth {
			t.Errorf("tier %q per-core bw must stay unscaled", tr.Name)
		}
	}
	if m.Cores != 4 {
		t.Errorf("per-rank cores = %d", m.Cores)
	}
}

func TestPageTableBasics(t *testing.T) {
	pt := NewPageTable(TierDDR)
	if pt.TierOf(0x1234) != TierDDR {
		t.Fatal("unmapped address should default to DDR")
	}
	pt.SetRange(0x10000, 3*units.PageSize, TierMCDRAM)
	for _, addr := range []uint64{0x10000, 0x10000 + uint64(units.PageSize), 0x10000 + uint64(3*units.PageSize) - 1} {
		if pt.TierOf(addr) != TierMCDRAM {
			t.Errorf("addr %#x not on MCDRAM", addr)
		}
	}
	if pt.TierOf(0x10000+uint64(3*units.PageSize)) != TierDDR {
		t.Error("page past end should stay on DDR")
	}
	pt.SetRange(0x10000, 3*units.PageSize, pt.def)
	if pt.TierOf(0x10000) != TierDDR {
		t.Error("clearing the range did not restore the default tier")
	}
}

func TestPageTablePartialPagePlacedWhole(t *testing.T) {
	pt := NewPageTable(TierDDR)
	pt.SetRange(100, 10, TierMCDRAM) // 10 bytes inside page 0
	if pt.TierOf(0) != TierMCDRAM || pt.TierOf(uint64(units.PageSize)-1) != TierMCDRAM {
		t.Error("partial placement must cover the whole page")
	}
	if got := pt.PlacedBytes()[TierMCDRAM]; got != units.PageSize {
		t.Errorf("placed = %d, want one page", got)
	}
}

func TestPageTableZeroAndNegativeSize(t *testing.T) {
	pt := NewPageTable(TierDDR)
	pt.SetRange(0x1000, 0, TierMCDRAM)
	pt.SetRange(0x1000, -4, TierMCDRAM)
	if len(pt.PlacedBytes()) != 0 {
		t.Error("zero/negative size must place nothing")
	}
}

func TestPageTableExtentsCoalesce(t *testing.T) {
	pt := NewPageTable(TierDDR)
	pt.SetRange(0, 2*units.PageSize, TierMCDRAM)
	pt.SetRange(uint64(4*units.PageSize), units.PageSize, TierMCDRAM)
	ex := pt.extents()
	if len(ex) != 2 {
		t.Fatalf("extents = %v, want 2 runs", ex)
	}
	if ex[0].Size != 2*units.PageSize || ex[1].Size != units.PageSize {
		t.Errorf("extent sizes wrong: %v", ex)
	}
}

func TestPageTablePlacementProperty(t *testing.T) {
	pt := NewPageTable(TierDDR)
	f := func(addrRaw uint32, sizeRaw uint16) bool {
		pt.ResetTo(pt.def)
		addr := uint64(addrRaw)
		size := int64(sizeRaw) + 1
		pt.SetRange(addr, size, TierMCDRAM)
		// Every byte of the range must resolve to MCDRAM.
		for _, off := range []int64{0, size / 2, size - 1} {
			if pt.TierOf(addr+uint64(off)) != TierMCDRAM {
				return false
			}
		}
		// Placed bytes cover the range but no more than one extra page
		// on each side.
		placed := pt.PlacedBytes()[TierMCDRAM]
		return placed >= size && placed <= units.PageAlign(size)+units.PageSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTrafficMemoryTimeBandwidthBound(t *testing.T) {
	m := DefaultKNL()
	tr := NewTraffic()
	// Stream 1 GB from DDR on 64 cores: should be bandwidth-bound at
	// ~90 GB/s -> ~11.1 ms -> ~15.5 M cycles.
	total := int64(1 * units.GB)
	lines := total / m.LineSize
	for i := int64(0); i < lines; i += lines / 100 {
	}
	tr.bytes[TierDDR] = total
	tr.visits[TierDDR] = lines
	cyc := tr.MemoryTime(&m, 64)
	sec := cyc.Seconds(m.ClockHz)
	want := float64(total) / 90e9
	if sec < want*0.9 || sec > want*1.5 {
		t.Errorf("DDR stream time = %v s, want ~%v s", sec, want)
	}

	// The same traffic on MCDRAM must be much faster.
	tr2 := NewTraffic()
	tr2.bytes[TierMCDRAM] = total
	tr2.visits[TierMCDRAM] = lines
	if mc := tr2.MemoryTime(&m, 64); mc >= cyc {
		t.Errorf("MCDRAM stream (%d cyc) not faster than DDR (%d cyc)", mc, cyc)
	}
}

func TestTrafficMemoryTimeLatencyBoundSingleCore(t *testing.T) {
	m := DefaultKNL()
	tr := NewTraffic()
	// A pointer chase: many visits, few bytes. On one core MCDRAM's
	// worse idle latency should make it *slower* than DDR.
	tr.Add(TierMCDRAM, 64)
	tr.visits[TierMCDRAM] = 1e6
	tr.bytes[TierMCDRAM] = 64 * 1e6
	mcdram := tr.MemoryTime(&m, 1)

	tr2 := NewTraffic()
	tr2.visits[TierDDR] = 1e6
	tr2.bytes[TierDDR] = 64 * 1e6
	ddr := tr2.MemoryTime(&m, 1)
	if ddr >= mcdram {
		t.Errorf("latency-bound: DDR (%d) should beat MCDRAM (%d) on one core", ddr, mcdram)
	}
}

func TestTrafficResetAndTotals(t *testing.T) {
	tr := NewTraffic()
	tr.Add(TierDDR, 64)
	tr.Add(TierMCDRAM, 64)
	if tr.Visits(TierDDR) != 1 || tr.Bytes(TierMCDRAM) != 64 {
		t.Error("per-tier accounting wrong")
	}
	tr.Reset()
	if *tr != (Traffic{}) {
		t.Error("Reset did not clear")
	}
}

func TestMemoryTimeEmptyTraffic(t *testing.T) {
	m := DefaultKNL()
	if c := NewTraffic().MemoryTime(&m, 4); c != 0 {
		t.Errorf("empty traffic cost = %d, want 0", c)
	}
}

func TestCoarseRangeMapping(t *testing.T) {
	pt := NewPageTable(TierDDR)
	if err := pt.SetCoarseRange(1<<32, 16*units.GB, TierMCDRAM); err != nil {
		t.Fatal(err)
	}
	if pt.TierOf(1<<32) != TierMCDRAM || pt.TierOf((1<<32)+uint64(16*units.GB)-1) != TierMCDRAM {
		t.Fatal("coarse range not mapped")
	}
	if pt.TierOf((1<<32)-1) != TierDDR || pt.TierOf((1<<32)+uint64(16*units.GB)) != TierDDR {
		t.Fatal("coarse range boundaries leak")
	}
}

func TestCoarseRangeOverlapRejected(t *testing.T) {
	pt := NewPageTable(TierDDR)
	if err := pt.SetCoarseRange(0x1000, 0x1000, TierMCDRAM); err != nil {
		t.Fatal(err)
	}
	if err := pt.SetCoarseRange(0x1800, 0x1000, TierDDR); err == nil {
		t.Fatal("overlapping coarse range accepted")
	}
	// Identical range re-bind replaces the tier.
	if err := pt.SetCoarseRange(0x1000, 0x1000, TierDDR); err != nil {
		t.Fatal(err)
	}
	if pt.TierOf(0x1000) != TierDDR {
		t.Fatal("re-bind did not replace tier")
	}
	if err := pt.SetCoarseRange(0x9000, 0, TierDDR); err == nil {
		t.Fatal("zero-size coarse range accepted")
	}
}

func TestPageOverrideShadowsCoarseRange(t *testing.T) {
	pt := NewPageTable(TierDDR)
	if err := pt.SetCoarseRange(0, 64*units.PageSize, TierMCDRAM); err != nil {
		t.Fatal(err)
	}
	// Override one page back to DDR inside the MCDRAM coarse range.
	pt.SetRange(uint64(5*units.PageSize), units.PageSize, TierDDR)
	if pt.TierOf(uint64(5*units.PageSize)) != TierDDR {
		t.Fatal("page override did not shadow coarse range")
	}
	if pt.TierOf(uint64(6*units.PageSize)) != TierMCDRAM {
		t.Fatal("neighbouring page lost coarse mapping")
	}
}
