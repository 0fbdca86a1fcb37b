package advisor

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/units"
	"repro/internal/xrand"
)

// threeTierKNLish is a small KNL+Optane-shaped configuration: fast
// MCDRAM, a DDR default whose capacity binds, and an NVM floor.
func threeTierKNLish(fast, ddr int64) MemoryConfig {
	return MemoryConfig{
		DefaultTier: "DDR",
		Tiers: []TierConfig{
			{Name: "MCDRAM", Capacity: fast, RelativePerf: 4.8},
			{Name: "DDR", Capacity: ddr, RelativePerf: 1.0},
			{Name: "NVM", Capacity: 4 * units.GB, RelativePerf: 0.4},
		},
	}
}

// bruteForceObjective enumerates every feasible object×tier assignment
// under the solver's model (misses-carrying objects only, page-granular
// hard capacities for non-default tiers, the default an unbounded
// absorber) and returns the maximum objective — the oracle's oracle.
func bruteForceObjective(t *testing.T, objs []Object, mc MemoryConfig) float64 {
	t.Helper()
	tiers, def := mc.hierarchy()
	var cands []Object
	var totalPages int64
	for _, o := range objs {
		if o.Misses > 0 && o.pages() > 0 {
			cands = append(cands, o)
			totalPages += o.pages()
		}
	}
	caps := make([]int64, len(tiers))
	perf := make([]float64, len(tiers))
	for i, tc := range tiers {
		caps[i] = tc.Capacity / units.PageSize
		perf[i] = tc.effectivePerf()
		if tc.Name == def {
			caps[i] = totalPages
		}
	}

	best := -1.0
	var walk func(k int, cur float64)
	walk = func(k int, cur float64) {
		if k == len(cands) {
			if cur > best {
				best = cur
			}
			return
		}
		for t := range tiers {
			if caps[t] < cands[k].pages() {
				continue
			}
			caps[t] -= cands[k].pages()
			walk(k+1, cur+float64(cands[k].Misses)*perf[t])
			caps[t] += cands[k].pages()
		}
	}
	walk(0, 0)
	return best
}

// TestExactNTierMatchesBruteForce pins the branch-and-bound against
// exhaustive enumeration on randomized three-tier instances small
// enough to enumerate.
func TestExactNTierMatchesBruteForce(t *testing.T) {
	r := xrand.New(1337)
	for trial := 0; trial < 40; trial++ {
		n := 3 + r.Intn(6)
		var objs []Object
		for i := 0; i < n; i++ {
			objs = append(objs, obj(fmt.Sprintf("o%d", i),
				int64(r.Intn(6)+1), int64(r.Intn(1000))))
		}
		mc := threeTierKNLish(int64(r.Intn(12)+4)*units.MB, int64(r.Intn(16)+4)*units.MB)
		rep, err := Advise(context.Background(), "app", objs, mc, ExactNTier{}, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := ReportObjective(objs, rep, mc)
		want := bruteForceObjective(t, objs, mc)
		if diff := got - want; diff > 1e-6*want+1e-9 || diff < -(1e-6*want+1e-9) {
			t.Fatalf("trial %d: exact objective %.6f, brute force %.6f\nobjs=%+v\nreport=%+v",
				trial, got, want, objs, rep.Entries)
		}
	}
}

// TestExactNTierPricesBanishmentAsACost pins the oracle's model on the
// waterfall's N-tier acceptance scenario: the optimum promotes the hot
// object and keeps everything else on the unbounded default — explicit
// banishment to the floor never improves the linear objective, so the
// greedy waterfall (which banishes for spill-safety the pricing cannot
// see) lands strictly below exact but within the property bound.
func TestExactNTierPricesBanishmentAsACost(t *testing.T) {
	mc := threeTierKNLish(8*units.MB, 16*units.MB)
	objs := []Object{
		obj("hot", 8, 5000),
		obj("warm1", 8, 900),
		obj("warm2", 8, 800),
		obj("cold1", 8, 10),
		obj("cold2", 8, 5),
	}
	rep, err := Advise(context.Background(), "app", objs, mc, ExactNTier{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tiers := map[string]string{}
	for _, e := range rep.Entries {
		tiers[e.ID] = e.Tier
	}
	if tiers["hot"] != "MCDRAM" {
		t.Fatalf("hot on %q, want MCDRAM (placement %v)", tiers["hot"], tiers)
	}
	for _, id := range []string{"warm1", "warm2", "cold1", "cold2"} {
		if got, has := tiers[id]; has {
			t.Fatalf("%s got an explicit entry on %q; the exact model keeps it on the default", id, got)
		}
	}
	// The greedy waterfall banishes the cold objects (DDR's 16 MB
	// knapsack binds), paying a small objective cost — strictly below
	// exact, never above.
	for _, greedy := range []Strategy{MissesStrategy{}, DensityStrategy{}} {
		g, err := Advise(context.Background(), "app", objs, mc, greedy, nil)
		if err != nil {
			t.Fatal(err)
		}
		banished := 0
		for _, e := range g.Entries {
			if e.Tier == "NVM" {
				banished++
			}
		}
		if banished == 0 {
			t.Fatalf("%s did not banish under DDR pressure: %+v", greedy.Name(), g.Entries)
		}
		ratio := objectiveRatio(objs, g, rep, mc)
		if ratio > 1+1e-9 {
			t.Fatalf("greedy %s beat the exact solver: ratio %.6f", greedy.Name(), ratio)
		}
		if ratio >= 1 || ratio < 0.9 {
			t.Fatalf("greedy %s banishment cost out of range: ratio %.6f", greedy.Name(), ratio)
		}
	}
	if rep.Strategy != "exact" {
		t.Fatalf("strategy label = %q", rep.Strategy)
	}
	// N-tier reports stay self-describing under the hierarchy seam
	// even when the floor selection is empty.
	if len(rep.Tiers) != 2 || rep.Tiers[0].Name != "MCDRAM" || rep.Tiers[1].Name != "NVM" {
		t.Fatalf("report tiers = %+v", rep.Tiers)
	}
}

// smallFloorConfig is a three-tier shape whose FLOOR capacity also
// binds — the regime where greedy leftovers overload the default and a
// capacity-constrained oracle would (wrongly) be beatable.
func smallFloorConfig() MemoryConfig {
	return MemoryConfig{
		DefaultTier: "DDR",
		Tiers: []TierConfig{
			{Name: "MCDRAM", Capacity: 8 * units.MB, RelativePerf: 4.8},
			{Name: "DDR", Capacity: 16 * units.MB, RelativePerf: 1.0},
			{Name: "NVM", Capacity: 16 * units.MB, RelativePerf: 0.4},
		},
	}
}

// TestExactNTierSurvivesCapacityPressure: when the footprint exceeds
// the TOTAL configured capacity, the overflow stays implicitly on the
// default tier — the solver must neither error nor overpack any
// non-default tier's budget, exactly like the greedy waterfall on the
// same instance.
func TestExactNTierSurvivesCapacityPressure(t *testing.T) {
	mc := smallFloorConfig()
	var objs []Object
	for i := 0; i < 10; i++ {
		objs = append(objs, obj(fmt.Sprintf("o%d", i), 8, int64(1000-i)))
	}
	rep, err := Advise(context.Background(), "app", objs, mc, ExactNTier{}, nil)
	if err != nil {
		t.Fatalf("capacity-pressure instance rejected: %v", err)
	}
	used := map[string]int64{}
	for _, e := range rep.Entries {
		used[e.Tier] += units.PageAlign(e.Size)
	}
	if used["MCDRAM"] > 8*units.MB || used["NVM"] > 16*units.MB {
		t.Fatalf("non-default budgets overpacked: %v", used)
	}
	// The objective model still dominates the greedy cascade's.
	g, err := Advise(context.Background(), "app", objs, mc, DensityStrategy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := objectiveRatio(objs, g, rep, mc); ratio > 1+1e-9 {
		t.Fatalf("greedy beat exact under capacity pressure: ratio %.6f", ratio)
	}
}

// TestExactNTierDominatesGreedyDefaultOverload is the regression for
// the soundness hole a capacity-constrained default would open: when
// the floor's budget binds, greedy leftovers overload the default for
// free, so an oracle that caps the default can be beaten by its own
// greedy strategies. The instance is hand-built so the misses cascade
// leaves a leftover on the default (H fits no non-default tier after
// packing) — exact must still score at least every greedy strategy,
// because its model prices the default as the same unbounded absorber
// the waterfall's implicit remainder uses.
func TestExactNTierDominatesGreedyDefaultOverload(t *testing.T) {
	mc := MemoryConfig{
		DefaultTier: "DDR",
		Tiers: []TierConfig{
			{Name: "MCDRAM", Capacity: 8 * units.MB, RelativePerf: 4.8},
			{Name: "DDR", Capacity: 8 * units.MB, RelativePerf: 1.0},
			{Name: "NVM", Capacity: 16 * units.MB, RelativePerf: 0.4},
		},
	}
	objs := []Object{
		obj("A", 8, 1000),
		obj("H", 20, 800),
		obj("c", 4, 400),
		obj("M", 14, 300),
		obj("d", 2, 1),
	}
	exact, err := Advise(context.Background(), "app", objs, mc, ExactNTier{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := ReportObjective(objs, exact, mc)
	want := bruteForceObjective(t, objs, mc)
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("exact objective %.6f, brute force %.6f", got, want)
	}
	for _, greedy := range []Strategy{MissesStrategy{}, DensityStrategy{}} {
		g, err := Advise(context.Background(), "app", objs, mc, greedy, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := objectiveRatio(objs, g, exact, mc); ratio > 1+1e-9 {
			t.Fatalf("%s beat the exact oracle: ratio %.6f", greedy.Name(), ratio)
		}
	}
}

// TestExactNTierLeavesUnfittableObjectsImplicit: objects too big for
// every non-default tier simply stay on the default absorber — no
// error, no entries.
func TestExactNTierLeavesUnfittableObjectsImplicit(t *testing.T) {
	objs := []Object{obj("big0", 30, 500), obj("big1", 30, 400)}
	rep, err := Advise(context.Background(), "app", objs, smallFloorConfig(), ExactNTier{}, nil)
	if err != nil {
		t.Fatalf("fragmented instance rejected: %v", err)
	}
	if len(rep.Entries) != 0 {
		t.Fatalf("unfittable objects placed explicitly: %+v", rep.Entries)
	}
}

// TestExactNTierSelectDelegatesToExactDP pins the legacy one-knapsack
// seam: identical selection, in the same order, as the reference DP.
func TestExactNTierSelectDelegatesToExactDP(t *testing.T) {
	r := xrand.New(99)
	for trial := 0; trial < 25; trial++ {
		var objs []Object
		for i := 0; i < 8; i++ {
			objs = append(objs, obj(fmt.Sprintf("o%d", i),
				int64(r.Intn(5)+1), int64(r.Intn(300))))
		}
		budget := int64(r.Intn(12)+2) * units.MB
		got := ExactNTier{}.Select(objs, budget)
		want := ExactDP{}.Select(objs, budget)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Select diverged from ExactDP:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

// TestExactNTierNodeLimit: under Strict, hitting the search bound is
// a typed, errors.Is-able error — never a silent heuristic answer.
// Without Strict the same overrun degrades to the greedy waterfall
// with a machine-readable marker instead (TestExactNTierDegrades).
func TestExactNTierNodeLimit(t *testing.T) {
	var objs []Object
	for i := 0; i < 12; i++ {
		objs = append(objs, obj(fmt.Sprintf("o%d", i), 2, int64(100+i)))
	}
	_, err := Advise(context.Background(), "app", objs, threeTierKNLish(8*units.MB, 8*units.MB), ExactNTier{MaxNodes: 3, Strict: true}, nil)
	if err == nil || !strings.Contains(err.Error(), "branch-and-bound") {
		t.Fatalf("expected a node-limit error, got %v", err)
	}
	if !errors.Is(err, ErrNodeLimit) {
		t.Fatalf("node-limit error is not errors.Is-able as ErrNodeLimit: %v", err)
	}
}

// TestExactNTierDegrades: the non-strict solver's degradation ladder —
// a node-limit overrun yields the density waterfall's placement with
// the Degraded marker carrying reason, nodes and a ratio bound, and
// the marker round-trips through the report exchange format.
func TestExactNTierDegrades(t *testing.T) {
	var objs []Object
	for i := 0; i < 12; i++ {
		objs = append(objs, obj(fmt.Sprintf("o%d", i), 2, int64(100+i)))
	}
	mc := threeTierKNLish(8*units.MB, 8*units.MB)
	rep, err := Advise(context.Background(), "app", objs, mc, ExactNTier{MaxNodes: 3}, nil)
	if err != nil {
		t.Fatalf("non-strict node-limit overrun should degrade, got error: %v", err)
	}
	d := rep.Degraded
	if d == nil {
		t.Fatal("degraded report carries no Degraded marker")
	}
	if d.Reason != "node-limit" || d.Fallback != (DensityStrategy{}).Name() || d.Nodes <= 0 {
		t.Errorf("Degraded = %+v, want reason node-limit, density fallback, nodes > 0", d)
	}
	if d.RatioBound <= 0 || d.RatioBound > 1 {
		t.Errorf("RatioBound = %v, want in (0, 1]", d.RatioBound)
	}
	if rep.Strategy != (ExactNTier{}).Name() {
		t.Errorf("degraded report renamed its strategy to %q", rep.Strategy)
	}

	// The placement must be exactly the fallback waterfall's.
	want, err := Advise(context.Background(), "app", objs, mc, DensityStrategy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Entries, want.Entries) || !reflect.DeepEqual(rep.Tiers, want.Tiers) {
		t.Errorf("degraded placement differs from the density waterfall:\n got %+v\nwant %+v", rep.Entries, want.Entries)
	}

	// Round-trip: the degraded directive survives Write/ReadReport,
	// and writing a clean report is byte-identical to the fallback's
	// (the marker is the only divergence).
	var buf strings.Builder
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Degraded, d) {
		t.Errorf("Degraded marker did not round-trip: %+v vs %+v", back.Degraded, d)
	}
}

// TestTimeAwareAndPartitionedRejectHierarchyStrategy: the advisors
// that only consume a Strategy's one-knapsack seam must refuse to
// cascade a hierarchy-aware solver over an N-tier configuration — the
// cascade is greedy, and its report would still say "exact".
func TestTimeAwareAndPartitionedRejectHierarchyStrategy(t *testing.T) {
	mc := smallFloorConfig()
	timed := []TimedObject{{Object: obj("a", 4, 100)}}
	plain := []Object{obj("a", 4, 100)}
	if _, err := AdviseTimeAware("app", timed, mc, ExactNTier{}); err == nil || !strings.Contains(err.Error(), "mislabel") {
		t.Fatalf("time-aware N-tier cascade accepted: err=%v", err)
	}
	if _, err := AdvisePartitioned("app", plain, nil, mc, ExactNTier{}); err == nil || !strings.Contains(err.Error(), "mislabel") {
		t.Fatalf("partitioned N-tier cascade accepted: err=%v", err)
	}
	// The two-tier degenerate stays allowed: there the strategy only
	// supplies the packing order, as for every greedy strategy.
	if _, err := AdviseTimeAware("app", timed, TwoTier(8*units.MB), ExactNTier{}); err != nil {
		t.Fatal(err)
	}
	if _, err := AdvisePartitioned("app", plain, nil, TwoTier(8*units.MB), ExactNTier{}); err != nil {
		t.Fatal(err)
	}
}

// rogueHierarchyStrategy returns whatever selection map it was built
// with — the hostile HierarchyStrategy the advisor must audit.
type rogueHierarchyStrategy struct{ sel map[string][]Object }

func (rogueHierarchyStrategy) Name() string                           { return "rogue-hier" }
func (rogueHierarchyStrategy) Select(objs []Object, b int64) []Object { return nil }
func (r rogueHierarchyStrategy) SelectHierarchy([]Object, []TierConfig, string) (map[string][]Object, error) {
	return r.sel, nil
}

// TestAdviseRejectsRogueHierarchySelections: selections keyed by an
// unknown tier (a typo would otherwise vanish silently), keyed by the
// default tier, or placing one object on two tiers are contract
// violations Advise must refuse.
func TestAdviseRejectsRogueHierarchySelections(t *testing.T) {
	mc := smallFloorConfig()
	o := obj("a", 4, 100)
	cases := map[string]map[string][]Object{
		"unknown tier": {"MCDRAMM": {o}},
		"default tier": {"DDR": {o}},
		"double place": {"MCDRAM": {o}, "NVM": {o}},
	}
	for name, sel := range cases {
		if _, err := Advise(context.Background(), "app", []Object{o}, mc, rogueHierarchyStrategy{sel: sel}, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A well-formed selection through the same seam still works.
	ok := map[string][]Object{"MCDRAM": {o}}
	rep, err := Advise(context.Background(), "app", []Object{o}, mc, rogueHierarchyStrategy{sel: ok}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 1 || rep.Entries[0].Tier != "MCDRAM" {
		t.Fatalf("entries = %+v", rep.Entries)
	}
}

// overpackStrategy violates the Strategy contract by selecting every
// candidate regardless of budget — the rogue the advisor must refuse.
type overpackStrategy struct{}

func (overpackStrategy) Name() string { return "overpack" }
func (overpackStrategy) Select(objs []Object, budget int64) []Object {
	return append([]Object(nil), objs...)
}

// TestAdviseRejectsOverpackedSelection is the regression test for the
// silent-truncation hole: an object bigger than every tier budget that
// a (buggy or adversarial) strategy selects anyway must fail Advise
// with an error, not flow into a report the interposer would truncate.
func TestAdviseRejectsOverpackedSelection(t *testing.T) {
	objs := []Object{obj("giant", 64, 1000)}
	_, err := Advise(context.Background(), "app", objs, TwoTier(8*units.MB), overpackStrategy{}, nil)
	if err == nil || !strings.Contains(err.Error(), "overpacked") {
		t.Fatalf("overpacked selection accepted: err=%v", err)
	}
	// The same guard protects every tier of an N-tier cascade.
	mc := threeTierKNLish(4*units.MB, 8*units.MB)
	_, err = Advise(context.Background(), "app", objs, mc, overpackStrategy{}, nil)
	if err == nil || !strings.Contains(err.Error(), "overpacked") {
		t.Fatalf("N-tier overpacked selection accepted: err=%v", err)
	}
	// The partitioned advisor's overflow tiers pack through the same
	// cascade, so a rogue selection for a tier below the fastest is
	// refused there too.
	hbm := MemoryConfig{DefaultTier: "DDR", Tiers: []TierConfig{
		{Name: "HBM", Capacity: 4 * units.MB, RelativePerf: 6},
		{Name: "MCDRAM", Capacity: 8 * units.MB, RelativePerf: 4.8},
		{Name: "DDR", Capacity: units.GB, RelativePerf: 1},
	}}
	_, err = AdvisePartitioned("app", objs, nil, hbm, overpackStrategy{})
	if err == nil || !strings.Contains(err.Error(), "overpacked") {
		t.Fatalf("partitioned overflow overpacked selection accepted: err=%v", err)
	}
	// Honest strategies on the same instance simply skip the object.
	rep, err := Advise(context.Background(), "app", objs, TwoTier(8*units.MB), MissesStrategy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 0 {
		t.Fatalf("unfittable object selected: %+v", rep.Entries)
	}
}

// TestReportObjective pins the pricing helper: entries price at their
// tier's effective perf, everything else at the default tier's.
func TestReportObjective(t *testing.T) {
	mc := threeTierKNLish(8*units.MB, 16*units.MB)
	objs := []Object{obj("a", 4, 100), obj("b", 4, 50), obj("c", 4, 10)}
	rep := &Report{Entries: []Entry{
		{Tier: "MCDRAM", ID: "a"},
		{Tier: "NVM", ID: "c"},
	}}
	got := ReportObjective(objs, rep, mc)
	want := 100*4.8 + 50*1.0 + 10*0.4
	if got != want {
		t.Fatalf("objective = %v, want %v", got, want)
	}
	if r := objectiveRatio(objs, rep, rep, mc); r != 1 {
		t.Fatalf("self ratio = %v", r)
	}
	empty := &Report{}
	if r := objectiveRatio(nil, empty, empty, mc); r != 1 {
		t.Fatalf("zero-objective ratio = %v, want 1", r)
	}
}

// objectiveRatio is got's objective as a fraction of exact's — the
// optimality gap a greedy report leaves against the exact oracle
// (1.0 = optimal). Returns 1 when the exact objective is zero (no
// sampled misses: every placement is equally good).
func objectiveRatio(objs []Object, got, exact *Report, mc MemoryConfig) float64 {
	e := ReportObjective(objs, exact, mc)
	if e == 0 {
		return 1
	}
	return ReportObjective(objs, got, mc) / e
}
