// Baselines: the Section IV.D "general discussion" table — for every
// Table I application, compare DDR, numactl -p 1, autohbw, MCDRAM
// cache mode and the framework's best configuration, and print which
// approach wins (the paper's three-way split).
//
//	go run ./examples/baselines
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	hm "repro"
)

func main() {
	// Every application's Figure 4 grid in one sweep; each grid starts
	// with its four baselines (DDR, numactl, autohbw, cache) followed
	// by the budget-major pipeline plane.
	var pts []hm.SweepPoint
	var start []int
	for _, w := range hm.Workloads() {
		start = append(start, len(pts))
		pts = append(pts, hm.Figure4Points(w, 1)...)
	}
	start = append(start, len(pts))
	res, err := hm.RunSweep(pts, hm.SweepOptions{})
	if err != nil {
		log.Fatal(err)
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tDDR\tnumactl\tautohbw\tcache\tframework\twinner")
	for a, w := range hm.Workloads() {
		lo, hi := start[a], start[a+1]
		ddr, numactl, autohbw, cache := res[lo].Run.FOM, res[lo+1].Run.FOM, res[lo+2].Run.FOM, res[lo+3].Run.FOM
		// Framework at the largest swept budget, better of the two
		// strategy families.
		budgets := hm.BudgetsFor(w)
		top := budgets[len(budgets)-1]
		best := 0.0
		for i := lo + 4; i < hi; i++ {
			p := pts[i].Pipeline
			switch p.Strategy.Name() {
			case "density", "misses(0%)":
				if p.Budget == top {
					best = max(best, res[i].Run.FOM)
				}
			}
		}
		winner, winFOM := "framework", best
		for _, b := range []struct {
			name string
			fom  float64
		}{{"numactl", numactl}, {"cache", cache}, {"autohbw", autohbw}, {"ddr", ddr}} {
			if b.fom > winFOM {
				winner, winFOM = b.name, b.fom
			}
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%s\n",
			w.Name, ddr, numactl, autohbw, cache, best, winner)
	}
	tw.Flush()
	fmt.Println("\npaper (Section IV): framework wins HPCG/miniFE/GTC-P;")
	fmt.Println("cache mode wins Lulesh/MAXW-DGTD; numactl wins BT/CGPOP/SNAP.")
}
