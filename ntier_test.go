package hybridmem_test

import (
	"testing"

	hm "repro"
	"repro/internal/advisor"
	"repro/internal/alloc"
	"repro/internal/baseline"
	"repro/internal/callstack"
	"repro/internal/engine"
	"repro/internal/interpose"
	"repro/internal/mem"
	"repro/internal/online"
	"repro/internal/units"
	"repro/internal/xrand"
)

// TestNTierWaterfallBeatsTwoTierAndDDR is the acceptance scenario of
// the N-tier refactor, read from the DDR and 256 MB cells of the
// shared three-tier grid (NTierPoints, the grid experiments -ntier
// prints): on a KNL+Optane rank (DDR 1.5 GB + MCDRAM 256 MB + NVM
// 8 GB) with a workload whose hot set exceeds MCDRAM and whose
// footprint exceeds DDR+MCDRAM, the waterfall advisor must beat both
// the placement-oblivious DDR run AND the two-tier advisor — which,
// blind to the NVM floor, lets its DDR overflow spill warm data down
// by allocation order.
func TestNTierWaterfallBeatsTwoTierAndDDR(t *testing.T) {
	if testing.Short() {
		t.Skip("three full three-tier runs are not -short")
	}
	pts := hm.NTierPoints(1, nil)
	// Cells 5 and 6 are the two-tier and waterfall cells at 256 MB.
	if pts[5].Label != "two-tier @256 MB" || pts[6].Label != "waterfall @256 MB" {
		t.Fatalf("grid layout moved: cells 5, 6 = %q, %q", pts[5].Label, pts[6].Label)
	}
	if mc := pts[6].Pipeline.Memory; mc.DefaultTier != "DDR" || len(mc.Tiers) != 3 {
		t.Fatalf("waterfall memory config = %+v", mc)
	}
	res, err := hm.RunSweep([]hm.SweepPoint{pts[0], pts[5], pts[6]}, hm.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ddr, two, ntier := res[0].Run, res[1].Pipeline, res[2].Pipeline

	// The oblivious run must actually suffer the trap: hot/warm data
	// stranded on the NVM floor by allocation order.
	if ddr.TierHWMs[hm.TierNVM] == 0 {
		t.Fatalf("DDR run never spilled to NVM — the scenario is not exercising the floor (HWMs=%v)", ddr.TierHWMs)
	}
	// The two-tier advisor cannot name NVM: its report must be
	// MCDRAM-only, and the run must still spill to NVM as DDR overflow.
	for _, e := range two.Report.Entries {
		if e.Tier != "MCDRAM" {
			t.Fatalf("two-tier report names tier %q", e.Tier)
		}
	}
	if two.Run.TierHWMs[hm.TierNVM] == 0 {
		t.Fatal("two-tier run did not overflow to NVM — DDR capacity is not binding")
	}
	// The waterfall must banish cold objects to NVM explicitly.
	nvmEntries := 0
	for _, e := range ntier.Report.Entries {
		if e.Tier == "NVM" {
			nvmEntries++
		}
	}
	if nvmEntries == 0 {
		t.Fatalf("waterfall report has no NVM entries: %+v", ntier.Report.Entries)
	}

	if !(ntier.Run.FOM > two.Run.FOM && two.Run.FOM > ddr.FOM) {
		t.Fatalf("placement ordering wrong: waterfall %.3f, two-tier %.3f, ddr %.3f",
			ntier.Run.FOM, two.Run.FOM, ddr.FOM)
	}
}

// TestHBMCXLWaterfall runs the advisor across the second N-tier
// machine shape — HBM fastest, DDR default in the middle, CXL below —
// checking the hierarchy order and that the default tier stays
// implicit.
func TestHBMCXLWaterfall(t *testing.T) {
	m := hm.HBMCXL()
	mc := hm.MemoryConfigFor(m, 8*units.MB)
	if mc.DefaultTier != "DDR" {
		t.Fatalf("default tier = %q", mc.DefaultTier)
	}
	if mc.Tiers[0].Name != "HBM" || mc.Tiers[2].Name != "CXL" {
		t.Fatalf("hierarchy order = %+v", mc.Tiers)
	}
	if mc.Tiers[0].Capacity != 8*units.MB {
		t.Fatalf("fast budget not applied: %+v", mc.Tiers[0])
	}
}

// TestEveryPolicyReallocSpillsDownTheHierarchy: on a DDR+MCDRAM+NVM
// node whose default heap is full, every policy's realloc of a growing
// block spills to the NVM heap below the default and frees the old
// block, whether the block sat on the default heap or on MCDRAM.
func TestEveryPolicyReallocSpillsDownTheHierarchy(t *testing.T) {
	m := mem.KNLOptane()
	prog := callstack.NewProgram("spill", xrand.New(1))
	site := prog.Site("main", "init", "allocGrower")
	key := prog.Table.Translate(site)
	selected := &advisor.Report{
		App: "spill", Budget: 64 * units.MB,
		Entries: []advisor.Entry{{Tier: "MCDRAM", ID: string(key), Site: key, Size: 2 * units.MB, Misses: 100}},
		LBSize:  2 * units.MB, UBSize: 2 * units.MB,
	}
	for _, tc := range []struct {
		name   string
		policy engine.PolicyFactory
	}{
		{"ddr", baseline.DDR()},
		{"numactl", baseline.Numactl()},
		{"autohbw", baseline.AutoHBW(units.MB)},
		{"framework-unmatched", interpose.Factory(&advisor.Report{App: "spill", Budget: 64 * units.MB}, interpose.Options{})},
		{"framework-matched", interpose.Factory(selected, interpose.Options{})},
		{"online", online.Factory(online.Options{Machine: m, Budget: 4 * units.MB})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var heaps []alloc.HeapSpec
			for _, h := range []struct {
				id   mem.TierID
				size int64
			}{{mem.TierDDR, 16 * units.MB}, {mem.TierMCDRAM, 4 * units.MB}, {mem.TierNVM, 64 * units.MB}} {
				tier, _ := m.Tier(h.id)
				heaps = append(heaps, alloc.HeapSpec{Tier: tier, Size: h.size})
			}
			mk, err := alloc.NewMemkindHierarchy(alloc.NewSpace(mem.NewPageTable(mem.TierDDR)), heaps)
			if err != nil {
				t.Fatal(err)
			}
			p, err := tc.policy(mk, prog)
			if err != nil {
				t.Fatal(err)
			}
			a, err := p.Malloc(site, 2*units.MB)
			if err != nil {
				t.Fatal(err)
			}
			from, _ := mk.KindOf(a)
			for {
				if _, err := mk.Malloc(alloc.KindDefault, units.MB); err != nil {
					break
				}
			}
			na, err := p.Realloc(site, a, 8*units.MB)
			if err != nil {
				t.Fatalf("realloc with the default heap full: %v", err)
			}
			k, _ := mk.KindOf(na)
			if tier, _ := mk.TierOf(k); tier != mem.TierNVM {
				t.Fatalf("grown block on %v, want NVM", tier)
			}
			if _, live := mk.Arena(from).SizeOf(a); live {
				t.Fatalf("old block on %v still live", from)
			}
		})
	}
}
