package advisor

import (
	"sort"

	"repro/internal/paramedir"
)

// PatternAwareStrategy implements the placement refinement of Section
// V: on KNL-class machines MCDRAM offers far higher bandwidth but
// WORSE idle latency than DDR, so bandwidth-hungry streaming objects
// profit most from promotion while latency-bound irregular objects
// profit less per miss. The strategy packs by profit density weighted
// by the object's classified access pattern.
//
// Weights reflect the reference machine's tier asymmetry: a regular
// stream's misses are worth their full bandwidth gain; an irregular
// object's gathers are partly latency-bound, which MCDRAM does not
// improve (and slightly degrades), so its misses are discounted.
type PatternAwareStrategy struct {
	// Patterns maps object ID to its classification (from
	// paramedir.ClassifyPatterns). Missing entries count as unknown.
	Patterns map[string]paramedir.AccessPattern
	// RegularBoost and IrregularDiscount tune the weighting; zero
	// values default to 1.0 and 0.6.
	RegularBoost      float64
	IrregularDiscount float64
}

// Name implements Strategy.
func (s PatternAwareStrategy) Name() string { return "pattern-aware" }

func (s PatternAwareStrategy) weights() (reg, irr float64) {
	reg, irr = s.RegularBoost, s.IrregularDiscount
	if reg <= 0 {
		reg = 1.0
	}
	if irr <= 0 {
		irr = 0.6
	}
	return reg, irr
}

// score is the weighted profit density.
func (s PatternAwareStrategy) score(o Object) float64 {
	reg, irr := s.weights()
	w := 1.0
	switch s.Patterns[o.ID] {
	case paramedir.PatternRegular:
		w = reg
	case paramedir.PatternIrregular:
		w = irr
	}
	return w * float64(o.Misses) / float64(o.Size)
}

// Select implements Strategy.
func (s PatternAwareStrategy) Select(objs []Object, budget int64) []Object {
	sorted := append([]Object(nil), objs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		si, sj := s.score(sorted[i]), s.score(sorted[j])
		if si != sj {
			return si > sj
		}
		return sorted[i].ID < sorted[j].ID
	})
	return packGreedy(sorted, budget, func(o Object) bool { return o.Misses > 0 })
}
