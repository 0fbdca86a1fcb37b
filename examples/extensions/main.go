// Extensions: the Section V future-work features working together on
// Lulesh — the application whose churn misleads the stock advisor.
//
//  1. Profile once (stage 1+2).
//
//  2. Classify each object's access pattern from the samples.
//
//  3. Build candidate placements: stock, time-aware, pattern-aware.
//
//  4. Screen them with the trace-replay predictor — no stage-4 runs.
//
//  5. Execute only the predicted winner and compare with reality.
//
//     go run ./examples/extensions
package main

import (
	"fmt"
	"log"

	hm "repro"
)

func main() {
	w, err := hm.WorkloadByName("lulesh")
	if err != nil {
		log.Fatal(err)
	}
	m := hm.MachineFor(w)
	const budget = 256 * hm.MB

	// Stages 1-2.
	tr, ddrRun, err := hm.Profile(w, hm.ProfileConfig{Machine: m, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	prof, err := hm.Analyze(tr)
	if err != nil {
		log.Fatal(err)
	}

	// Access-pattern classification from the sampled trace.
	patterns := hm.ClassifyPatterns(prof, tr)
	reg, irr := 0, 0
	for _, p := range patterns {
		switch p {
		case hm.PatternRegular:
			reg++
		case hm.PatternIrregular:
			irr++
		}
	}
	fmt.Printf("pattern classification: %d regular, %d irregular objects\n", reg, irr)

	// Candidate placements.
	type candidate struct {
		name string
		rep  *hm.PlacementReport
	}
	var cands []candidate
	stock, err := hm.Advise(prof, budget, hm.StrategyDensity)
	if err != nil {
		log.Fatal(err)
	}
	cands = append(cands, candidate{"density (stock)", stock})
	timeAware, err := hm.AdviseTimeAware(prof, hm.TwoTier(budget), hm.StrategyDensity)
	if err != nil {
		log.Fatal(err)
	}
	cands = append(cands, candidate{"density+timeaware", timeAware})
	patAware, err := hm.Advise(prof, budget, hm.StrategyPatternAware(patterns))
	if err != nil {
		log.Fatal(err)
	}
	cands = append(cands, candidate{"pattern-aware", patAware})

	// Screen with the trace-replay predictor.
	var reports []*hm.PlacementReport
	for _, c := range cands {
		reports = append(reports, c.rep)
	}
	order, preds, err := hm.RankPlacements(tr, reports, m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npredicted ranking (no stage-4 runs needed):")
	for rank, idx := range order {
		fmt.Printf("  %d. %-20s predicted %.2fx vs DDR (%d objects, %.0f%% of misses moved)\n",
			rank+1, cands[idx].name, preds[idx].SpeedupVsDDR,
			len(cands[idx].rep.Entries), preds[idx].MovedMissFraction*100)
	}

	// Execute only the winner.
	best := cands[order[0]]
	res, err := hm.Execute(w, best.rep, hm.InterposeOptions{}, hm.ExecuteConfig{Machine: m, Seed: 22})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexecuted %s: %.0f %s vs %.0f on DDR — actual %.2fx (predicted %.2fx)\n",
		best.name, res.FOM, res.FOMUnit, ddrRun.FOM,
		ddrRun.Seconds/res.Seconds, preds[order[0]].SpeedupVsDDR)
}
