package advisor

import (
	"context"
	"testing"

	"repro/internal/mem"
	"repro/internal/units"
)

// dualSocketConfig mirrors mem.DualSocketHBM from the advisor's point
// of view: near DDR (default), a raw-faster HBM one hop away, and a
// near NVM floor.
func dualSocketConfig(withDistance bool) MemoryConfig {
	dist := func(d float64) float64 {
		if withDistance {
			return d
		}
		return 0
	}
	return MemoryConfig{
		DefaultTier: "DDR",
		Tiers: []TierConfig{
			{Name: "DDR", Capacity: 4 * units.MB, RelativePerf: 1.0, Distance: dist(1.0)},
			{Name: "HBM", Capacity: 4 * units.MB, RelativePerf: 1.6, Distance: dist(2.2)},
			{Name: "NVM", Capacity: 64 * units.MB, RelativePerf: 0.4, Distance: dist(1.0)},
		},
	}
}

// TestAdvisePrefersNearDDROverRemoteFastTier is the advisor half of
// the topology acceptance scenario: with the distance priced in, the
// hot set is kept on near DDR (no entries — it is the default) and
// remote HBM only takes the overflow, while the topology-blind packing
// of the same tiers ships the hot set to HBM.
func TestAdvisePrefersNearDDROverRemoteFastTier(t *testing.T) {
	objs := []Object{
		obj("hot", 4, 1000),
		obj("warm", 4, 500),
		obj("cold", 4, 10),
	}

	aware, err := Advise(context.Background(), "app", objs, dualSocketConfig(true), MissesStrategy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tierOf := func(rep *Report, id string) string {
		for _, e := range rep.Entries {
			if e.ID == id {
				return e.Tier
			}
		}
		return "" // default tier: no entry
	}
	if got := tierOf(aware, "hot"); got != "" {
		t.Fatalf("topology-aware advisor put hot on %q, want near DDR (no entry)", got)
	}
	if got := tierOf(aware, "warm"); got != "HBM" {
		t.Fatalf("warm overflow should land on remote HBM, got %q", got)
	}
	if got := tierOf(aware, "cold"); got != "NVM" {
		t.Fatalf("cold should be banished to NVM, got %q", got)
	}

	blind, err := Advise(context.Background(), "app", objs, dualSocketConfig(false), MissesStrategy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tierOf(blind, "hot"); got != "HBM" {
		t.Fatalf("topology-blind advisor should ship hot to HBM, got %q", got)
	}
}

// TestAdviseNearInstanceFirstAtEqualPerf pins the "splitting a tier's
// budget across domains" behavior: two DDR instances of equal raw
// perf, one local and one remote — the near one fills first.
func TestAdviseNearInstanceFirstAtEqualPerf(t *testing.T) {
	mc := MemoryConfig{
		DefaultTier: "NVM",
		Tiers: []TierConfig{
			{Name: "DDR1", Capacity: 4 * units.MB, RelativePerf: 1.0, Distance: 2.1},
			{Name: "DDR0", Capacity: 4 * units.MB, RelativePerf: 1.0, Distance: 1.0},
			{Name: "NVM", Capacity: 64 * units.MB, RelativePerf: 0.4, Distance: 1.0},
		},
	}
	objs := []Object{obj("hot", 4, 1000), obj("warm", 4, 500)}
	rep, err := Advise(context.Background(), "app", objs, mc, MissesStrategy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, e := range rep.Entries {
		got[e.ID] = e.Tier
	}
	if got["hot"] != "DDR0" || got["warm"] != "DDR1" {
		t.Fatalf("near instance must fill first: %v", got)
	}
}

// TestFromMachineCarriesDistance checks the machine-derived config
// prices tiers from the pinned domain and leads with the effectively-
// fastest tier (where the fast budget lands).
func TestFromMachineCarriesDistance(t *testing.T) {
	m := mem.DualSocketHBM()
	mc := FromMachine(&m, 16*units.MB)
	if mc.Tiers[0].Name != "DDR" || mc.Tiers[1].Name != "HBM" || mc.Tiers[2].Name != "NVM" {
		t.Fatalf("near order = %+v", mc.Tiers)
	}
	// The budget binds the promoted tier, never the default: on this
	// machine the effectively-fastest tier IS the default DDR, so the
	// budget falls through to HBM while DDR keeps its full capacity.
	if mc.Tiers[0].Capacity != m.DefaultTier().Capacity {
		t.Fatalf("default tier must keep its capacity: %+v", mc.Tiers[0])
	}
	if mc.Tiers[1].Capacity != 16*units.MB {
		t.Fatalf("budget must land on the effectively-fastest non-default tier: %+v", mc.Tiers[1])
	}
	if mc.Tiers[1].Distance != 2.2 || mc.Tiers[0].Distance != 1.0 {
		t.Fatalf("distances = %+v", mc.Tiers)
	}
	if err := mc.Validate(); err != nil {
		t.Fatal(err)
	}

	// Pinned to socket 1 the same machine leads with HBM.
	p := m
	p.HomeDomain = 1
	mc1 := FromMachine(&p, 16*units.MB)
	if mc1.Tiers[0].Name != "HBM" {
		t.Fatalf("socket-1 view must lead with HBM: %+v", mc1.Tiers)
	}
}
