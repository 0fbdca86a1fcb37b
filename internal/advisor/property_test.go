package advisor

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/units"
	"repro/internal/xrand"
)

// Property-based verification of the advisor against the exact oracle:
// xrand-generated instances, deterministic seeds, three laws —
//
//	(a) no strategy's report ever exceeds any tier budget;
//	(b) on two-tier degenerate machines the waterfall with ExactNTier
//	    is byte-identical to ExactDP (modulo the strategy label, which
//	    necessarily differs);
//	(c) on three-tier instances the greedy waterfall's objective stays
//	    within a fixed fraction of the exact optimum.

// randObjects draws n placement candidates: sizes 1..maxMB MB, misses
// 0..999 (a zero-miss object appears with probability 1/8 to exercise
// the never-promoted rule).
func randObjects(r *xrand.RNG, n, maxMB int) []Object {
	objs := make([]Object, 0, n)
	for i := 0; i < n; i++ {
		misses := int64(r.Intn(1000))
		if r.Intn(8) == 0 {
			misses = 0
		}
		objs = append(objs, obj(fmt.Sprintf("o%02d", i), int64(r.Intn(maxMB)+1), misses))
	}
	return objs
}

// randThreeTier draws a KNL+Optane-shaped configuration whose fast and
// default capacities bind against the instance's footprint.
func randThreeTier(r *xrand.RNG) MemoryConfig {
	return threeTierKNLish(
		int64(r.Intn(24)+16)*units.MB,
		int64(r.Intn(48)+24)*units.MB,
	)
}

// propertyStrategies are the packers every placement law must hold
// for, the exact oracle included.
func propertyStrategies() []Strategy {
	return []Strategy{
		MissesStrategy{},
		MissesStrategy{Threshold: 1},
		DensityStrategy{},
		FCFSStrategy{},
		ExactDP{},
		ExactNTier{},
	}
}

// TestPropertyNoStrategyExceedsTierBudgets is law (a): whatever the
// strategy and hierarchy shape, every tier's entries fit its budget at
// page granularity, every entry names a configured non-default tier,
// and no object is placed twice.
func TestPropertyNoStrategyExceedsTierBudgets(t *testing.T) {
	r := xrand.New(0xB0B)
	for trial := 0; trial < 60; trial++ {
		objs := randObjects(r, 4+r.Intn(9), 6)
		configs := []MemoryConfig{
			TwoTier(int64(r.Intn(24)+4) * units.MB),
			randThreeTier(r),
		}
		for _, mc := range configs {
			budgets := map[string]int64{}
			for _, tc := range mc.Tiers {
				budgets[tc.Name] = tc.Capacity
			}
			_, def := mc.hierarchy()
			for _, strat := range propertyStrategies() {
				rep, err := Advise(context.Background(), "app", objs, mc, strat, nil)
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, strat.Name(), err)
				}
				used := map[string]int64{}
				seen := map[string]bool{}
				for _, e := range rep.Entries {
					if _, ok := budgets[e.Tier]; !ok {
						t.Fatalf("trial %d %s: entry on unknown tier %q", trial, strat.Name(), e.Tier)
					}
					if e.Tier == def {
						t.Fatalf("trial %d %s: explicit entry on the default tier", trial, strat.Name())
					}
					if seen[e.ID] {
						t.Fatalf("trial %d %s: object %s placed twice", trial, strat.Name(), e.ID)
					}
					seen[e.ID] = true
					used[e.Tier] += units.PageAlign(e.Size)
				}
				for tier, u := range used {
					if u > budgets[tier] {
						t.Fatalf("trial %d: strategy %s exceeds tier %s budget: %d > %d",
							trial, strat.Name(), tier, u, budgets[tier])
					}
				}
			}
		}
	}
}

// TestPropertyTwoTierDegenerateMatchesExactDP is law (b): on the
// paper's MCDRAM+DDR shape the exact N-tier solver must fall back to
// the one-knapsack DP, and the serialized reports must be
// byte-identical once the (necessarily different) strategy label is
// normalized.
func TestPropertyTwoTierDegenerateMatchesExactDP(t *testing.T) {
	r := xrand.New(0xD0D)
	for trial := 0; trial < 120; trial++ {
		objs := randObjects(r, 3+r.Intn(10), 5)
		mc := TwoTier(int64(r.Intn(20)+2) * units.MB)
		dp, err := Advise(context.Background(), "app", objs, mc, ExactDP{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		nt, err := Advise(context.Background(), "app", objs, mc, ExactNTier{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		nt.Strategy = dp.Strategy
		var bufDP, bufNT bytes.Buffer
		if err := dp.Write(&bufDP); err != nil {
			t.Fatal(err)
		}
		if err := nt.Write(&bufNT); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bufDP.Bytes(), bufNT.Bytes()) {
			t.Fatalf("trial %d: two-tier degenerate diverged from ExactDP:\n--- exact-dp ---\n%s\n--- exact ---\n%s",
				trial, bufDP.String(), bufNT.String())
		}
	}
}

// TestPropertyWaterfallWithinBoundOfExact is law (c): across ≥ 200
// randomized three-tier instances the greedy waterfall keeps at least
// 90% of the exact N-tier objective (for both packing orders the paper
// evaluates), and never beats it. The worst observed gap is logged so
// optimality-gap drift shows up in test output.
func TestPropertyWaterfallWithinBoundOfExact(t *testing.T) {
	const instances = 200
	const minRatio = 0.9
	r := xrand.New(0xCAFE)
	worst := map[string]float64{}
	worstTrial := map[string]int{}
	for trial := 0; trial < instances; trial++ {
		objs := randObjects(r, 6+r.Intn(8), 6)
		mc := randThreeTier(r)
		exact, err := Advise(context.Background(), "app", objs, mc, ExactNTier{}, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, greedy := range []Strategy{MissesStrategy{}, DensityStrategy{}} {
			rep, err := Advise(context.Background(), "app", objs, mc, greedy, nil)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, greedy.Name(), err)
			}
			ratio := objectiveRatio(objs, rep, exact, mc)
			if ratio > 1+1e-9 {
				t.Fatalf("trial %d: %s beat the exact oracle (ratio %.6f) — the oracle is not exact",
					trial, greedy.Name(), ratio)
			}
			if ratio < minRatio {
				t.Fatalf("trial %d: %s objective fell to %.4f of exact (< %.2f)",
					trial, greedy.Name(), ratio, minRatio)
			}
			name := greedy.Name()
			if cur, ok := worst[name]; !ok || ratio < cur {
				worst[name] = ratio
				worstTrial[name] = trial
			}
		}
	}
	for name, ratio := range worst {
		t.Logf("worst %s/exact objective ratio over %d instances: %.4f (trial %d)",
			name, instances, ratio, worstTrial[name])
	}
}

// TestPropertyExactDominatesWithBindingFloor hammers the regime that
// would break a capacity-constrained oracle: floors small enough that
// greedy leftovers overload the default tier. Whatever any strategy
// does there, its report must never price above the exact optimum —
// the oracle's feasible region is the reports' own (hard non-default
// budgets, unbounded default), so supremacy is structural.
func TestPropertyExactDominatesWithBindingFloor(t *testing.T) {
	r := xrand.New(0xF100D)
	for trial := 0; trial < 80; trial++ {
		objs := randObjects(r, 5+r.Intn(8), 8)
		mc := MemoryConfig{
			DefaultTier: "DDR",
			Tiers: []TierConfig{
				{Name: "MCDRAM", Capacity: int64(r.Intn(12)+4) * units.MB, RelativePerf: 4.8},
				{Name: "DDR", Capacity: int64(r.Intn(12)+4) * units.MB, RelativePerf: 1.0},
				{Name: "NVM", Capacity: int64(r.Intn(16)+4) * units.MB, RelativePerf: 0.4},
			},
		}
		exact, err := Advise(context.Background(), "app", objs, mc, ExactNTier{}, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, greedy := range propertyStrategies() {
			rep, err := Advise(context.Background(), "app", objs, mc, greedy, nil)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, greedy.Name(), err)
			}
			if ratio := objectiveRatio(objs, rep, exact, mc); ratio > 1+1e-9 {
				t.Fatalf("trial %d: %s beat the exact oracle on a binding floor (ratio %.6f)",
					trial, greedy.Name(), ratio)
			}
		}
	}
}
