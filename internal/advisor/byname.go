package advisor

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// StrategyGrammar is every name StrategyByName accepts, as the
// command-line surfaces print it in their help.
const StrategyGrammar = "density | misses | misses:<pct> | exact | exact-strict | exact-dp | fcfs"

// StrategyByName resolves the command-line strategy grammar shared by
// every surface that accepts a strategy as text — cmd/hmemadvisor,
// cmd/experiments, and the advisory daemon's wire protocol (see
// StrategyGrammar).
//
// Unknown names and malformed misses thresholds are errors; in
// particular "misses5" is rejected rather than silently parsed as a
// 0% threshold, and a threshold must be a finite percentage without a
// minus sign, so "misses:-0" cannot name a second 0% strategy. The
// root package re-exports this as hybridmem.StrategyByName.
func StrategyByName(name string) (Strategy, error) {
	switch name {
	case "density":
		return DensityStrategy{}, nil
	case "exact":
		return ExactNTier{}, nil
	case "exact-strict":
		return ExactNTier{Strict: true}, nil
	case "exact-dp":
		return ExactDP{}, nil
	case "fcfs":
		return FCFSStrategy{}, nil
	case "misses":
		return MissesStrategy{}, nil
	}
	if rest, ok := strings.CutPrefix(name, "misses:"); ok {
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || math.Signbit(v) {
			return nil, fmt.Errorf("advisor: bad misses threshold %q (want a finite, non-negative percentage)", rest)
		}
		return MissesStrategy{Threshold: v}, nil
	}
	return nil, fmt.Errorf("advisor: unknown strategy %q (want %s)", name, StrategyGrammar)
}
