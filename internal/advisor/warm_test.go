package advisor

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/units"
	"repro/internal/xrand"
)

// Warm-start equivalence laws, property-tested over xrand instances:
//
//	(a) Advise with a persistent WarmState is byte-identical to the
//	    cold (nil WarmState) Advise of every instance in an epoch-like sequence
//	    of drifting profiles — for the greedy strategies AND the exact
//	    N-tier solver;
//	(b) the exact solver's warm solve explores no more branch-and-bound
//	    nodes than the cold solve of the same instance;
//	(c) the seam actually engages: stable sequences produce order-cache
//	    hits and feasible floors, not silent cold paths.

// reportJSON canonicalizes a report for byte-level comparison.
func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return b
}

// driftEpochs yields an epoch-like sequence of instances: the same
// object population whose miss counts drift a little every step, with
// occasional churn (an object disappearing or appearing) — the shape
// the online placer and a budget sweep hand the warm seam.
func driftEpochs(r *xrand.RNG, epochs int) [][]Object {
	base := randObjects(r, 8+r.Intn(8), 6)
	out := make([][]Object, 0, epochs)
	for e := 0; e < epochs; e++ {
		cur := append([]Object(nil), base...)
		for i := range cur {
			// Mostly small drift so consecutive orders often agree...
			if r.Intn(4) == 0 {
				cur[i].Misses += int64(r.Intn(7)) - 3
				if cur[i].Misses < 0 {
					cur[i].Misses = 0
				}
			}
			// ...with occasional rank-breaking jumps.
			if r.Intn(16) == 0 {
				cur[i].Misses = int64(r.Intn(1000))
			}
		}
		if r.Intn(8) == 0 && len(cur) > 2 {
			i := r.Intn(len(cur))
			cur = append(cur[:i], cur[i+1:]...)
		}
		if r.Intn(8) == 0 {
			cur = append(cur, obj(fmt.Sprintf("n%02d", e), int64(r.Intn(6)+1), int64(r.Intn(1000))))
		}
		base = cur
		out = append(out, cur)
	}
	return out
}

// TestWarmGreedyEquivalence is law (a) for the waterfall strategies:
// across drifting epoch sequences on two- and three-tier machines, the
// warm report is byte-identical to the cold one, every epoch.
func TestWarmGreedyEquivalence(t *testing.T) {
	r := xrand.New(0x3A12)
	strategies := []Strategy{
		MissesStrategy{},
		MissesStrategy{Threshold: 1},
		MissesStrategy{Threshold: 5},
		DensityStrategy{},
	}
	var hits int64
	for trial := 0; trial < 25; trial++ {
		configs := []MemoryConfig{
			TwoTier(int64(r.Intn(24)+4) * units.MB),
			randThreeTier(r),
		}
		epochs := driftEpochs(r, 6)
		for _, mc := range configs {
			for _, strat := range strategies {
				ws := NewWarmState()
				for e, objs := range epochs {
					cold, err := Advise(context.Background(), "app", objs, mc, strat, nil, nil)
					if err != nil {
						t.Fatalf("trial %d epoch %d %s: cold: %v", trial, e, strat.Name(), err)
					}
					warm, err := Advise(context.Background(), "app", objs, mc, strat, ws, nil)
					if err != nil {
						t.Fatalf("trial %d epoch %d %s: warm: %v", trial, e, strat.Name(), err)
					}
					if c, w := reportJSON(t, cold), reportJSON(t, warm); !reflect.DeepEqual(c, w) {
						t.Fatalf("trial %d epoch %d %s: warm report diverged\ncold: %s\nwarm: %s",
							trial, e, strat.Name(), c, w)
					}
				}
				hits += ws.Stats().OrderHits
			}
		}
	}
	// Law (c): the drift is gentle, so a healthy seam must have reused
	// orders somewhere across 25 trials × configs × strategies.
	if hits == 0 {
		t.Fatalf("warm seam never reused a sorted order across the whole property run")
	}
}

// TestWarmExactEquivalence is laws (a)+(b) for the exact N-tier
// solver: across drifting epoch sequences on three-tier machines, the
// warm solve returns byte-identical selections and never explores more
// nodes than the cold solve of the same instance.
func TestWarmExactEquivalence(t *testing.T) {
	r := xrand.New(0x3A13)
	var warmRuns, savedNodes int64
	for trial := 0; trial < 20; trial++ {
		mc := randThreeTier(r)
		tiers, def := mc.hierarchy()
		ws := NewWarmState()
		e := ExactNTier{}
		for ei, objs := range driftEpochs(r, 6) {
			coldSel, coldSt, coldErr := e.selectHierarchy(context.Background(), objs, tiers, def, nil, "")
			warmSel, warmSt, warmErr := e.selectHierarchy(context.Background(), objs, tiers, def, ws, "hierarchy")
			if (coldErr == nil) != (warmErr == nil) {
				t.Fatalf("trial %d epoch %d: error divergence: cold=%v warm=%v", trial, ei, coldErr, warmErr)
			}
			if coldErr != nil {
				continue
			}
			if !reflect.DeepEqual(coldSel, warmSel) {
				t.Fatalf("trial %d epoch %d: warm selection diverged\ncold: %+v\nwarm: %+v",
					trial, ei, coldSel, warmSel)
			}
			if warmSt.Best != coldSt.Best {
				t.Fatalf("trial %d epoch %d: objective diverged: cold %v warm %v",
					trial, ei, coldSt.Best, warmSt.Best)
			}
			if warmSt.Nodes > coldSt.Nodes {
				t.Fatalf("trial %d epoch %d: warm explored MORE nodes (%d) than cold (%d)",
					trial, ei, warmSt.Nodes, coldSt.Nodes)
			}
			if warmSt.Warm {
				warmRuns++
				savedNodes += coldSt.Nodes - warmSt.Nodes
			}
		}
	}
	if warmRuns == 0 {
		t.Fatalf("no exact solve ever seeded a feasible floor across the whole property run")
	}
	if savedNodes == 0 {
		t.Fatalf("floor seeding never pruned a single node across %d warm runs", warmRuns)
	}
}

// TestWarmExactReportEquivalence is law (a) at the report level,
// through the same entry point the pipeline uses: Advise with a
// WarmState and the exact strategy over an epoch sequence matches the
// cold Advise byte for byte.
func TestWarmExactReportEquivalence(t *testing.T) {
	r := xrand.New(0x3A14)
	for trial := 0; trial < 10; trial++ {
		mc := randThreeTier(r)
		ws := NewWarmState()
		for e, objs := range driftEpochs(r, 5) {
			cold, err := Advise(context.Background(), "app", objs, mc, ExactNTier{}, nil, nil)
			if err != nil {
				t.Fatalf("trial %d epoch %d: cold: %v", trial, e, err)
			}
			warm, err := Advise(context.Background(), "app", objs, mc, ExactNTier{}, ws, nil)
			if err != nil {
				t.Fatalf("trial %d epoch %d: warm: %v", trial, e, err)
			}
			if c, w := reportJSON(t, cold), reportJSON(t, warm); !reflect.DeepEqual(c, w) {
				t.Fatalf("trial %d epoch %d: warm report diverged\ncold: %s\nwarm: %s", trial, e, c, w)
			}
		}
	}
}

// TestWarmOrderCacheRejectsStaleOrder pins the verification step: a
// cached order invalidated by a rank flip must fall back to the cold
// sort, not serve the stale permutation.
func TestWarmOrderCacheRejectsStaleOrder(t *testing.T) {
	ws := NewWarmState()
	s := MissesStrategy{}
	a := []Object{obj("a", 1, 100), obj("b", 1, 50), obj("c", 1, 10)}
	budget := int64(3) * units.MB

	first := s.SelectWarm(a, budget, ws, "MCDRAM")
	if got := ws.Stats(); got.OrderMisses != 1 || got.OrderHits != 0 {
		t.Fatalf("first solve: want 1 cold sort, got %+v", got)
	}
	// Same ranking, different values: must verify and hit.
	b := []Object{obj("a", 1, 90), obj("b", 1, 60), obj("c", 1, 20)}
	second := s.SelectWarm(b, budget, ws, "MCDRAM")
	if got := ws.Stats(); got.OrderHits != 1 {
		t.Fatalf("stable ranking: want an order hit, got %+v", got)
	}
	// Rank flip: b overtakes a — the stale order must be rejected.
	c := []Object{obj("a", 1, 10), obj("b", 1, 60), obj("c", 1, 20)}
	third := s.SelectWarm(c, budget, ws, "MCDRAM")
	if got := ws.Stats(); got.OrderMisses != 2 {
		t.Fatalf("rank flip: want a second cold sort, got %+v", got)
	}
	if third[0].ID != "b" {
		t.Fatalf("rank flip: want b packed first, got %q", third[0].ID)
	}
	// Selections must always match the cold strategy.
	for i, sel := range [][]Object{first, second, third} {
		var in []Object
		switch i {
		case 0:
			in = a
		case 1:
			in = b
		case 2:
			in = c
		}
		if cold := s.Select(in, budget); !reflect.DeepEqual(cold, sel) {
			t.Fatalf("solve %d: warm selection %+v != cold %+v", i, sel, cold)
		}
	}
}
