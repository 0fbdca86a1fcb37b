package mem

import (
	"testing"

	"repro/internal/units"
)

func TestDomainDistanceDefaults(t *testing.T) {
	m := DefaultKNL()
	if d := m.DomainDistance(0, 0); d != 1.0 {
		t.Fatalf("local distance = %g", d)
	}
	if d := m.DomainDistance(0, 3); d != 1.0 {
		t.Fatalf("uncovered distance = %g", d)
	}
	ds := DualSocketHBM()
	if d := ds.DomainDistance(0, 1); d != 2.2 {
		t.Fatalf("remote distance = %g", d)
	}
	if d := ds.DomainDistance(1, 0); d != 2.2 {
		t.Fatalf("reverse remote distance = %g", d)
	}
}

func TestEffectivePerfDeratesRemoteTiers(t *testing.T) {
	m := DualSocketHBM()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	ddr, _ := m.Tier(TierDDR)
	hbm, _ := m.Tier(TierHBM)
	if hbm.RelativePerf <= ddr.RelativePerf {
		t.Fatalf("HBM must be raw-faster than DDR: %g vs %g", hbm.RelativePerf, ddr.RelativePerf)
	}
	if m.EffectivePerf(hbm) >= m.EffectivePerf(ddr) {
		t.Fatalf("remote HBM must be effectively slower than near DDR: %g vs %g",
			m.EffectivePerf(hbm), m.EffectivePerf(ddr))
	}
	// Pinned to socket 1 the ordering flips: HBM is local there.
	p := m
	p.HomeDomain = 1
	if p.EffectivePerf(hbm) <= p.EffectivePerf(ddr) {
		t.Fatalf("local HBM must beat remote DDR from socket 1")
	}
}

func TestNearHierarchyOrdersAndDegenerates(t *testing.T) {
	m := DualSocketHBM()
	near := m.NearHierarchy()
	if near[0].ID != TierDDR || near[1].ID != TierHBM || near[2].ID != TierNVM {
		t.Fatalf("near hierarchy from socket 0 = %v %v %v", near[0].Name, near[1].Name, near[2].Name)
	}
	raw := m.Hierarchy()
	if raw[0].ID != TierHBM {
		t.Fatalf("raw hierarchy must lead with HBM, got %v", raw[0].Name)
	}
	if m.NearFastestTier().ID != TierDDR {
		t.Fatalf("near-fastest = %v", m.NearFastestTier().Name)
	}

	// Uniform topology: near order must equal the raw order on every
	// shipped machine.
	for _, mk := range []Machine{DefaultKNL(), KNLOptane(), HBMCXL()} {
		u := WithUniformTopology(mk, 3)
		if err := u.Validate(); err != nil {
			t.Fatal(err)
		}
		nh, h := u.NearHierarchy(), mk.Hierarchy()
		for i := range h {
			if nh[i].ID != h[i].ID {
				t.Fatalf("uniform near hierarchy diverged at %d: %v vs %v", i, nh[i].ID, h[i].ID)
			}
			if u.EffectivePerf(nh[i]) != nh[i].RelativePerf {
				t.Fatalf("uniform effective perf %g != relative perf %g",
					u.EffectivePerf(nh[i]), nh[i].RelativePerf)
			}
		}
	}
}

func TestMemoryTimeScalesWithDistance(t *testing.T) {
	m := DualSocketHBM()
	uni := m
	uni.Distance = nil

	tr := NewTraffic()
	tr.AddBulk(TierHBM, 1_000_000, 64)

	far := tr.MemoryTime(&m, m.Cores)
	nearT := tr.MemoryTime(&uni, uni.Cores)
	if far <= nearT {
		t.Fatalf("remote HBM traffic must cost more: %d vs %d cycles", far, nearT)
	}

	// DDR is local: distance must not change its price.
	tr2 := NewTraffic()
	tr2.AddBulk(TierDDR, 1_000_000, 64)
	if a, b := tr2.MemoryTime(&m, m.Cores), tr2.MemoryTime(&uni, uni.Cores); a != b {
		t.Fatalf("local DDR traffic priced differently: %d vs %d", a, b)
	}
}

func TestMemoryTimeUniformTopologyByteIdentical(t *testing.T) {
	base := KNLOptane()
	u := WithUniformTopology(base, 2)
	for _, cores := range []int{1, 17, 68} {
		tr := NewTraffic()
		tr.AddBulk(TierDDR, 500_000, 64)
		tr.AddBulk(TierMCDRAM, 2_000_000, 64)
		tr.AddBulk(TierNVM, 100_000, 64)
		if a, b := tr.MemoryTime(&base, cores), tr.MemoryTime(&u, cores); a != b {
			t.Fatalf("cores=%d: uniform topology changed MemoryTime: %d vs %d", cores, a, b)
		}
	}
}

func TestTierOverlapFieldDefaultsAndOverrides(t *testing.T) {
	m := DefaultKNL()
	if m.OverlapFraction() != DefaultTierOverlap {
		t.Fatalf("default overlap = %g", m.OverlapFraction())
	}
	tr := NewTraffic()
	tr.AddBulk(TierDDR, 1_000_000, 64)
	tr.AddBulk(TierMCDRAM, 1_000_000, 64)
	base := tr.MemoryTime(&m, m.Cores)

	over := m
	over.TierOverlap = 1.0 // full hiding: only the dominant tier counts
	if got := tr.MemoryTime(&over, m.Cores); got >= base {
		t.Fatalf("overlap 1.0 must shrink memory time: %d vs %d", got, base)
	}
	bad := m
	bad.TierOverlap = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("overlap beyond 1 must not validate")
	}
}

func TestMigrationTimeDistanceAndContention(t *testing.T) {
	m := DualSocketHBM()
	uni := m
	uni.Distance = nil
	bytes := int64(64 * units.MB)

	// Crossing to remote HBM costs more than the same copy priced
	// without the hop.
	far := MigrationTime(&m, m.Cores, bytes, TierDDR, TierHBM)
	nearT := MigrationTime(&uni, uni.Cores, bytes, TierDDR, TierHBM)
	if far <= nearT {
		t.Fatalf("remote migration must cost more: %d vs %d", far, nearT)
	}

	// DDR and NVM share socket 0's controller: concurrent DDR demand
	// throttles a DDR->NVM copy, but demand on the dedicated HBM
	// controller does not.
	window := units.Cycles(2_000_000_000) // 1 s at 2 GHz
	demand := map[TierID]int64{TierDDR: int64(30 * units.GB)}
	idle := MigrationTimeUnder(&m, m.Cores, bytes, TierDDR, TierNVM, nil, 0)
	busy := MigrationTimeUnder(&m, m.Cores, bytes, TierDDR, TierNVM, demand, window)
	if busy <= idle {
		t.Fatalf("shared-controller demand must slow the copy: %d vs %d", busy, idle)
	}
	hbmDemand := map[TierID]int64{TierHBM: int64(30 * units.GB)}
	if got := MigrationTimeUnder(&m, m.Cores, bytes, TierDDR, TierNVM, hbmDemand, window); got != idle {
		t.Fatalf("dedicated-controller demand must not contend: %d vs %d", got, idle)
	}

	// Without declared sharing, demand is ignored entirely.
	plain := KNLOptane()
	a := MigrationTime(&plain, plain.Cores, bytes, TierNVM, TierDDR)
	b := MigrationTimeUnder(&plain, plain.Cores, bytes, TierNVM, TierDDR, demand, window)
	if a != b {
		t.Fatalf("undeclared controllers must price identically: %d vs %d", a, b)
	}

	// The copy keeps its floor share even under overwhelming demand.
	flood := map[TierID]int64{TierDDR: int64(10_000 * units.GB)}
	flooded := MigrationTimeUnder(&m, m.Cores, bytes, TierDDR, TierNVM, flood, window)
	if flooded <= busy {
		t.Fatalf("flooded copy must be slower still: %d vs %d", flooded, busy)
	}
	if flooded > busy*20 {
		t.Fatalf("floor share must bound the slowdown: %d vs %d", flooded, busy)
	}
}

func TestWithSharedControllers(t *testing.T) {
	shares := func(m Machine, a, b TierID) bool {
		ta, _ := m.Tier(a)
		tb, _ := m.Tier(b)
		return ta.Controller > 0 && ta.Controller == tb.Controller
	}
	m := WithSharedControllers(KNLOptane(), 1, TierDDR, TierNVM)
	if !shares(m, TierDDR, TierNVM) {
		t.Fatal("DDR and NVM must share after WithSharedControllers")
	}
	if shares(m, TierDDR, TierMCDRAM) {
		t.Fatal("MCDRAM must keep its dedicated controller")
	}
	orig := KNLOptane()
	if shares(orig, TierDDR, TierNVM) {
		t.Fatal("shipped KNLOptane must not declare sharing")
	}
}

func TestTopologyValidation(t *testing.T) {
	m := DualSocketHBM()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DualSocketHBM()
	bad.Distance = [][]float64{{1, 2}}
	if err := bad.Validate(); err == nil {
		t.Fatal("ragged distance matrix must not validate")
	}
	bad = DualSocketHBM()
	bad.Distance[0][0] = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("non-unit local distance must not validate")
	}
	bad = DualSocketHBM()
	bad.HomeDomain = 2
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range home domain must not validate")
	}
	bad = DualSocketHBM()
	bad.Tiers[0].Domain = 7
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range tier domain must not validate")
	}
}

func TestEffectivelySlowerTiersCountRemoteFloor(t *testing.T) {
	// On DualSocketHBM the remote HBM is raw-faster than the default
	// DDR but effectively slower — it is part of the overflow floor.
	m := DualSocketHBM()
	ids := map[TierID]bool{}
	for _, tr := range m.EffectivelySlowerTiers() {
		ids[tr.ID] = true
	}
	if !ids[TierHBM] || !ids[TierNVM] || len(ids) != 2 {
		t.Fatalf("effectively slower tiers = %v, want {HBM, NVM}", ids)
	}
	// Raw SlowerTiers misses HBM — the discrepancy the helper exists for.
	raw := map[TierID]bool{}
	for _, tr := range m.slowerTiers() {
		raw[tr.ID] = true
	}
	if raw[TierHBM] {
		t.Fatal("raw SlowerTiers should not include HBM (guard against helper drift)")
	}

	// Uniform machines: identical to SlowerTiers.
	for _, mk := range []Machine{DefaultKNL(), KNLOptane(), HBMCXL()} {
		eff, slow := mk.EffectivelySlowerTiers(), mk.slowerTiers()
		if len(eff) != len(slow) {
			t.Fatalf("uniform machine diverged: %v vs %v", eff, slow)
		}
		for i := range eff {
			if eff[i].ID != slow[i].ID {
				t.Fatalf("uniform machine order diverged: %v vs %v", eff, slow)
			}
		}
	}
}

// slowerTiers returns the tiers strictly slower than the default, in
// hierarchy (descending-perf) order — the overflow chain capacity
// exhaustion cascades down, by raw RelativePerf — the reference
// EffectivelySlowerTiers is checked against.
func (m *Machine) slowerTiers() []TierSpec {
	def := m.DefaultTier()
	var out []TierSpec
	for _, t := range m.Hierarchy() {
		if t.RelativePerf < def.RelativePerf {
			out = append(out, t)
		}
	}
	return out
}
