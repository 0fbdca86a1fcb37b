package online

import "repro/internal/mem"

// The placer's live assignment is inspected only by the tests; the run
// reports its counters through MetricsSnapshot.

// Assignments returns a copy of the solver's current site→tier map.
// Sites the waterfall explicitly placed are present — INCLUDING
// default-tier placements, which anchor spilled regions' rescue
// migrations — while sites no knapsack ever chose are absent (their
// regions rest on whatever segment allocated them).
func (p *Policy) Assignments() map[string]mem.TierID {
	out := make(map[string]mem.TierID, len(p.assigned))
	for s, t := range p.assigned {
		out[s] = t
	}
	return out
}

// FastUsed returns the page-aligned bytes currently bound to the
// fastest tier.
func (p *Policy) FastUsed() int64 { return p.usedBy[p.tiers[0].ID] }

// Decay returns the configured per-epoch retention factor.
func (a *Aggregator) Decay() float64 { return a.decay }
