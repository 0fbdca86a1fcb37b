package advisor

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/callstack"
	"repro/internal/paramedir"
	"repro/internal/units"
	"repro/internal/xrand"
)

func obj(id string, sizeMB int64, misses int64) Object {
	return Object{
		ID: id, Site: callstack.Key("app!" + id), Size: sizeMB * units.MB, Misses: misses,
	}
}

func TestMissesStrategyOrdering(t *testing.T) {
	objs := []Object{obj("small-hot", 1, 1000), obj("big-warm", 10, 800), obj("cold", 1, 5)}
	sel := MissesStrategy{}.Select(objs, 32*units.MB)
	if len(sel) != 3 {
		t.Fatalf("selected %d, want all 3 fit", len(sel))
	}
	if sel[0].ID != "small-hot" || sel[1].ID != "big-warm" {
		t.Fatalf("order = %v", sel)
	}
}

func TestMissesStrategyThreshold(t *testing.T) {
	// cold contributes 5/1805 ≈ 0.28% of misses.
	objs := []Object{obj("small-hot", 1, 1000), obj("big-warm", 10, 800), obj("cold", 1, 5)}
	sel := MissesStrategy{Threshold: 1}.Select(objs, 32*units.MB)
	for _, o := range sel {
		if o.ID == "cold" {
			t.Fatal("1% threshold should exclude the cold object")
		}
	}
	if len(sel) != 2 {
		t.Fatalf("selected %d, want 2", len(sel))
	}
	// 0% keeps it (but still requires misses > 0).
	sel = MissesStrategy{Threshold: 0}.Select(objs, 32*units.MB)
	if len(sel) != 3 {
		t.Fatalf("0%% selected %d, want 3", len(sel))
	}
}

func TestZeroMissObjectsNeverPromoted(t *testing.T) {
	objs := []Object{obj("untouched", 1, 0), obj("hot", 1, 10)}
	for _, s := range []Strategy{MissesStrategy{}, DensityStrategy{}, ExactDP{}} {
		sel := s.Select(objs, 32*units.MB)
		for _, o := range sel {
			if o.ID == "untouched" {
				t.Fatalf("%s promoted an object with zero misses", s.Name())
			}
		}
	}
}

func TestBudgetRespectedAtPageGranularity(t *testing.T) {
	objs := []Object{obj("a", 3, 100), obj("b", 3, 90), obj("c", 3, 80)}
	sel := MissesStrategy{}.Select(objs, 7*units.MB)
	if TotalPages(sel)*units.PageSize > 7*units.MB {
		t.Fatalf("selection exceeds budget: %d pages", TotalPages(sel))
	}
	if len(sel) != 2 {
		t.Fatalf("selected %d, want 2 of 3 MB under 7 MB", len(sel))
	}
}

func TestMissesSkipsTooBigTakesNext(t *testing.T) {
	// Greedy: the 10 MB object does not fit an 8 MB budget, but the
	// next ones do.
	objs := []Object{obj("big", 10, 1000), obj("m1", 4, 500), obj("m2", 3, 400)}
	sel := MissesStrategy{}.Select(objs, 8*units.MB)
	if len(sel) != 2 || sel[0].ID != "m1" || sel[1].ID != "m2" {
		t.Fatalf("selection = %+v", sel)
	}
}

func TestDensityStrategyPrefersDenseObjects(t *testing.T) {
	// big-warm has more total misses; small-hot has far higher density.
	objs := []Object{obj("big-warm", 16, 2000), obj("small-hot", 1, 1000)}
	sel := DensityStrategy{}.Select(objs, 16*units.MB)
	if sel[0].ID != "small-hot" {
		t.Fatalf("density first pick = %s, want small-hot", sel[0].ID)
	}
	// With 16 MB budget, after taking small-hot (1 MB) the 16 MB object
	// no longer fits: the SNAP stranding effect.
	if len(sel) != 1 {
		t.Fatalf("selection = %+v, want only small-hot", sel)
	}
	// Misses order would take big-warm instead.
	sel = MissesStrategy{}.Select(objs, 16*units.MB)
	if sel[0].ID != "big-warm" || len(sel) != 1 {
		t.Fatalf("misses selection = %+v", sel)
	}
}

func TestFCFS(t *testing.T) {
	objs := []Object{obj("z", 1, 0), obj("a", 1, 100)}
	sel := FCFSStrategy{}.Select(objs, 32*units.MB)
	if len(sel) != 2 || sel[0].ID != "z" {
		t.Fatalf("FCFS selection = %+v", sel)
	}
}

func TestExactDPBeatsOrEqualsGreedy(t *testing.T) {
	r := xrand.New(42)
	for trial := 0; trial < 20; trial++ {
		var objs []Object
		n := 5 + r.Intn(10)
		for i := 0; i < n; i++ {
			objs = append(objs, Object{
				ID:     fmt.Sprintf("o%d", i),
				Size:   int64(r.Intn(8)+1) * units.MB,
				Misses: int64(r.Intn(1000) + 1),
			})
		}
		budget := int64(r.Intn(16)+4) * units.MB
		exact := totalMisses(ExactDP{}.Select(objs, budget))
		greedyM := totalMisses(MissesStrategy{}.Select(objs, budget))
		greedyD := totalMisses(DensityStrategy{}.Select(objs, budget))
		if exact < greedyM || exact < greedyD {
			t.Fatalf("trial %d: exact (%d) worse than greedy (%d/%d)", trial, exact, greedyM, greedyD)
		}
	}
}

func TestExactDPRespectsBudgetProperty(t *testing.T) {
	r := xrand.New(7)
	f := func(seed uint16) bool {
		rr := r.Fork(uint64(seed))
		var objs []Object
		for i := 0; i < 8; i++ {
			objs = append(objs, Object{
				ID:     fmt.Sprintf("o%d", i),
				Size:   int64(rr.Intn(4)+1) * units.MB,
				Misses: int64(rr.Intn(100)),
			})
		}
		budget := int64(rr.Intn(8)+1) * units.MB
		sel := ExactDP{}.Select(objs, budget)
		return TotalPages(sel)*units.PageSize <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAdviseMultiTier(t *testing.T) {
	objs := []Object{
		obj("hot", 4, 1000),
		obj("warm", 4, 500),
		obj("cold", 4, 10),
		{ID: "static:grid", Size: 2 * units.MB, Misses: 800, Static: true},
	}
	rep, err := Advise(context.Background(), "app", objs, TwoTier(8*units.MB), MissesStrategy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Budget != 8*units.MB {
		t.Fatalf("budget = %d", rep.Budget)
	}
	// 8 MB fits hot (4) + static grid (2): warm (4) no longer fits.
	sites := rep.SiteTargets()
	if _, ok := sites[callstack.Key("app!hot")]; !ok {
		t.Fatal("hot not selected")
	}
	if _, ok := sites[callstack.Key("app!cold")]; ok {
		t.Fatal("cold selected")
	}
	// Static advice is reported but not among the site targets.
	adv := rep.StaticAdvice()
	if len(adv) != 1 || adv[0].ID != "static:grid" {
		t.Fatalf("static advice = %+v", adv)
	}
	if _, ok := sites[""]; ok {
		t.Fatal("empty site leaked into selection")
	}
}

func TestAdviseSizeBounds(t *testing.T) {
	objs := []Object{obj("a", 2, 1000), obj("b", 6, 900), {ID: "s", Size: units.MB, Misses: 800, Static: true}}
	rep, err := Advise(context.Background(), "app", objs, TwoTier(16*units.MB), MissesStrategy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LBSize != 2*units.MB || rep.UBSize != 6*units.MB {
		t.Fatalf("lb/ub = %d/%d, want 2MB/6MB (statics excluded)", rep.LBSize, rep.UBSize)
	}
}

func TestAdviseErrors(t *testing.T) {
	if _, err := Advise(context.Background(), "a", nil, MemoryConfig{}, MissesStrategy{}, nil); err == nil {
		t.Fatal("empty memory config accepted")
	}
	if _, err := Advise(context.Background(), "a", nil, TwoTier(units.MB), nil, nil); err == nil {
		t.Fatal("nil strategy accepted")
	}
	bad := TwoTier(units.MB)
	bad.Tiers[0].Capacity = 0
	if _, err := Advise(context.Background(), "a", nil, bad, MissesStrategy{}, nil); err == nil {
		t.Fatal("zero capacity accepted")
	}
	bad2 := TwoTier(units.MB)
	bad2.Tiers[1].RelativePerf = 0
	if _, err := Advise(context.Background(), "a", nil, bad2, MissesStrategy{}, nil); err == nil {
		t.Fatal("zero perf accepted")
	}
}

func TestReportRoundTrip(t *testing.T) {
	objs := []Object{obj("hot", 4, 1000), {ID: "static:g", Size: units.MB, Misses: 5, Static: true}}
	rep, err := Advise(context.Background(), "app", objs, TwoTier(32*units.MB), DensityStrategy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, rep)
	}
}

func TestReadReportErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"bad header":  "NOPE\tx\n",
		"bad budget":  "HMEM_ADVISOR\tx\nbudget\tzz\n",
		"bad object":  "HMEM_ADVISOR\tx\nobject\tMCDRAM\ttrue\n",
		"unknown":     "HMEM_ADVISOR\tx\nwhatever\t1\n",
		"bad static":  "HMEM_ADVISOR\tx\nobject\tMC\tzz\t1\t2\tid\tsite\n",
		"bad misses":  "HMEM_ADVISOR\tx\nobject\tMC\ttrue\tzz\t2\tid\tsite\n",
		"bad size":    "HMEM_ADVISOR\tx\nobject\tMC\ttrue\t1\tzz\tid\tsite\n",
		"bad strateg": "HMEM_ADVISOR\tx\nstrategy\n",
		"empty part":  "HMEM_ADVISOR\tx\nobject\tMC\tfalse\t1\t4096\tid\tsite\t5\t0\n",
		"neg part":    "HMEM_ADVISOR\tx\nobject\tMC\tfalse\t1\t4096\tid\tsite\t0\t-3\n",
		"neg offset":  "HMEM_ADVISOR\tx\nobject\tMC\tfalse\t1\t4096\tid\tsite\t-1\t8\n",
	}
	for name, in := range cases {
		if _, err := ReadReport(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFromProfile(t *testing.T) {
	p := &paramedir.Profile{Objects: []paramedir.ObjectStat{
		{ID: "k", Site: "k", MaxSize: 100, Misses: 7},
		{ID: "static:x", Static: true, MaxSize: 50, Misses: 3},
	}}
	objs := FromProfile(p)
	if len(objs) != 2 || objs[0].Misses != 7 || !objs[1].Static {
		t.Fatalf("FromProfile = %+v", objs)
	}
}

func TestStrategyNames(t *testing.T) {
	if (MissesStrategy{Threshold: 5}).Name() != "misses(5%)" {
		t.Fatal("misses name wrong")
	}
	if (DensityStrategy{}).Name() != "density" || (ExactDP{}).Name() != "exact-dp" || (FCFSStrategy{}).Name() != "fcfs" {
		t.Fatal("strategy names wrong")
	}
}

func TestPatternAwareStrategy(t *testing.T) {
	// Same density, different patterns: the regular object must win
	// under pattern weighting.
	objs := []Object{obj("stream", 10, 500), obj("gather", 10, 500)}
	s := PatternAwareStrategy{Patterns: map[string]paramedir.AccessPattern{
		"stream": paramedir.PatternRegular,
		"gather": paramedir.PatternIrregular,
	}}
	sel := s.Select(objs, 10*units.MB)
	if len(sel) != 1 || sel[0].ID != "stream" {
		t.Fatalf("selection = %+v, want the regular stream", sel)
	}
	if s.Name() != "pattern-aware" {
		t.Fatal("name wrong")
	}
	// Unknown objects keep weight 1.0: tie broken by ID.
	s2 := PatternAwareStrategy{}
	sel2 := s2.Select(objs, 10*units.MB)
	if sel2[0].ID != "gather" {
		t.Fatalf("unknown-pattern tie should break by ID, got %v", sel2[0].ID)
	}
	// Zero-miss objects never selected.
	sel3 := s.Select([]Object{obj("cold", 1, 0)}, 10*units.MB)
	if len(sel3) != 0 {
		t.Fatal("cold object selected")
	}
}

func TestAdviseThreeTiers(t *testing.T) {
	// Extensibility check (Section III: "we can extend this mechanism
	// in the future for different memory architectures"): a
	// three-tier config packs two knapsacks in descending performance
	// order; the slowest tier absorbs the remainder.
	mc := MemoryConfig{Tiers: []TierConfig{
		{Name: "HBM", Capacity: 8 * units.MB, RelativePerf: 5},
		{Name: "DDR", Capacity: 64 * units.MB, RelativePerf: 1},
		{Name: "NVM", Capacity: 512 * units.MB, RelativePerf: 0.2},
	}}
	objs := []Object{
		obj("hottest", 8, 1000),
		obj("warm", 32, 500),
		obj("cool", 32, 100),
	}
	rep, err := Advise(context.Background(), "app", objs, mc, MissesStrategy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tiers := map[string]string{}
	for _, e := range rep.Entries {
		tiers[e.ID] = e.Tier
	}
	if tiers["hottest"] != "HBM" {
		t.Fatalf("hottest on %q, want HBM", tiers["hottest"])
	}
	if tiers["warm"] != "DDR" || tiers["cool"] != "DDR" {
		t.Fatalf("mid objects on %v, want DDR", tiers)
	}
	// The report budget refers to the fastest tier.
	if rep.Budget != 8*units.MB {
		t.Fatalf("budget = %d", rep.Budget)
	}
}

// prefixStrategy takes candidates in input order while they fit. With
// copy unset it returns a sub-slice of its input, which the Strategy
// contract allows.
type prefixStrategy struct{ copy bool }

func (prefixStrategy) Name() string { return "prefix" }
func (s prefixStrategy) Select(objs []Object, budget int64) []Object {
	k, used := 0, int64(0)
	for k < len(objs) && used+units.PageAlign(objs[k].Size) <= budget {
		used += units.PageAlign(objs[k].Size)
		k++
	}
	if s.copy {
		return append([]Object(nil), objs[:k]...)
	}
	return objs[:k]
}

// TestWaterfallKeepsSubsliceSelections: a selection the cascade has
// kept for one tier must survive the filtering of the tiers after it,
// even when the strategy handed back a sub-slice of its input.
func TestWaterfallKeepsSubsliceSelections(t *testing.T) {
	mc := MemoryConfig{DefaultTier: "DDR", Tiers: []TierConfig{
		{Name: "HBM", Capacity: 8 * units.MB, RelativePerf: 6},
		{Name: "MCDRAM", Capacity: 8 * units.MB, RelativePerf: 4.8},
		{Name: "DDR", Capacity: units.GB, RelativePerf: 1},
	}}
	objs := []Object{obj("a", 4, 50), obj("b", 4, 40), obj("c", 4, 30), obj("d", 4, 20), obj("e", 4, 10)}
	want, err := Advise(context.Background(), "app", objs, mc, prefixStrategy{copy: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Advise(context.Background(), "app", objs, mc, prefixStrategy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sub-slice selections changed the report:\n got %+v\nwant %+v", got.Entries, want.Entries)
	}
	var placed []string
	for _, e := range got.Entries {
		placed = append(placed, e.Tier+":"+e.ID)
	}
	if fmt.Sprint(placed) != "[HBM:a HBM:b MCDRAM:c MCDRAM:d]" {
		t.Fatalf("placement = %v", placed)
	}
}

func TestAdviseDefaultTierMidHierarchy(t *testing.T) {
	// DDR default in the MIDDLE of the hierarchy: the fastest tier
	// fills first, DDR keeps the best of the overflow implicitly (no
	// entries), and the coldest objects get EXPLICIT entries banishing
	// them to the NVM floor.
	mc := MemoryConfig{
		Tiers: []TierConfig{
			{Name: "MCDRAM", Capacity: 8 * units.MB, RelativePerf: 4.8},
			{Name: "DDR", Capacity: 32 * units.MB, RelativePerf: 1},
			{Name: "NVM", Capacity: 512 * units.MB, RelativePerf: 0.4},
		},
		DefaultTier: "DDR",
	}
	objs := []Object{
		obj("hottest", 8, 1000),
		obj("warm", 32, 500),
		obj("cold", 32, 10),
	}
	rep, err := Advise(context.Background(), "app", objs, mc, MissesStrategy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tiers := map[string]string{}
	for _, e := range rep.Entries {
		tiers[e.ID] = e.Tier
	}
	if tiers["hottest"] != "MCDRAM" {
		t.Fatalf("hottest on %q, want MCDRAM", tiers["hottest"])
	}
	if _, has := tiers["warm"]; has {
		t.Fatalf("warm got an entry (%q) despite fitting the default tier", tiers["warm"])
	}
	if tiers["cold"] != "NVM" {
		t.Fatalf("cold on %q, want explicit NVM banishment", tiers["cold"])
	}
	// N-tier reports are self-describing: per-tier budgets recorded.
	if len(rep.Tiers) != 2 || rep.Tiers[0].Name != "MCDRAM" || rep.Tiers[1].Name != "NVM" {
		t.Fatalf("report tiers = %+v", rep.Tiers)
	}
	if rep.Tiers[1].Capacity != 512*units.MB {
		t.Fatalf("NVM budget = %d", rep.Tiers[1].Capacity)
	}
	// Targets resolve per site.
	targets := rep.SiteTargets()
	if targets[objs[2].Site] != "NVM" || targets[objs[0].Site] != "MCDRAM" {
		t.Fatalf("site targets = %v", targets)
	}
}

func TestNTierReportRoundTrip(t *testing.T) {
	mc := MemoryConfig{
		Tiers: []TierConfig{
			{Name: "HBM", Capacity: 8 * units.MB, RelativePerf: 5},
			{Name: "DDR", Capacity: 16 * units.MB, RelativePerf: 1},
			{Name: "CXL", Capacity: 256 * units.MB, RelativePerf: 0.3},
		},
		DefaultTier: "DDR",
	}
	objs := []Object{obj("a", 4, 900), obj("b", 16, 500), obj("c", 24, 3)}
	rep, err := Advise(context.Background(), "app", objs, mc, DensityStrategy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tiers) != 2 {
		t.Fatalf("expected per-tier budgets in an N-tier report, got %+v", rep.Tiers)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tier\tHBM\t") {
		t.Fatalf("serialized report lacks tier lines:\n%s", buf.String())
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, rep)
	}
}

func TestMemoryConfigValidateNTier(t *testing.T) {
	base := MemoryConfig{
		Tiers: []TierConfig{
			{Name: "MCDRAM", Capacity: 8 * units.MB, RelativePerf: 4.8},
			{Name: "DDR", Capacity: 32 * units.MB, RelativePerf: 1},
		},
	}
	dupe := base
	dupe.Tiers = append([]TierConfig(nil), base.Tiers...)
	dupe.Tiers = append(dupe.Tiers, TierConfig{Name: "DDR", Capacity: units.MB, RelativePerf: 0.5})
	if err := dupe.Validate(); err == nil {
		t.Fatal("duplicate tier name accepted")
	}
	missing := base
	missing.DefaultTier = "NVM"
	if err := missing.Validate(); err == nil {
		t.Fatal("default tier outside configuration accepted")
	}
	ok := base
	ok.DefaultTier = "DDR"
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSinglePackedFloorReportIsSelfDescribing(t *testing.T) {
	// A DDR(default, fastest) + NVM config packs exactly ONE tier —
	// the floor. Such a report is all "banish" entries; it must carry
	// its per-tier budgets so readers (interposer, replayer) never
	// mistake it for a legacy promote-everything report.
	mc := MemoryConfig{
		Tiers: []TierConfig{
			{Name: "DDR", Capacity: 16 * units.MB, RelativePerf: 1},
			{Name: "NVM", Capacity: 512 * units.MB, RelativePerf: 0.4},
		},
		DefaultTier: "DDR",
	}
	objs := []Object{obj("hot", 8, 1000), obj("cold", 16, 5)}
	rep, err := Advise(context.Background(), "app", objs, mc, MissesStrategy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tiers) != 1 || rep.Tiers[0].Name != "NVM" {
		t.Fatalf("single-floor report not self-describing: Tiers=%+v", rep.Tiers)
	}
	tiers := map[string]string{}
	for _, e := range rep.Entries {
		tiers[e.ID] = e.Tier
	}
	if _, has := tiers["hot"]; has {
		t.Fatalf("hot object displaced off the default tier: %v", tiers)
	}
	if tiers["cold"] != "NVM" {
		t.Fatalf("cold object on %q, want NVM", tiers["cold"])
	}
}

// totalMisses sums the misses of a selection.
func totalMisses(objs []Object) int64 {
	var s int64
	for _, o := range objs {
		s += o.Misses
	}
	return s
}
