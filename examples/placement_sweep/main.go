// Placement sweep: the Figure 4 experiment for one application —
// every budget x strategy combination against the four baselines,
// with FOM, fast-memory HWM and the ΔFOM/MByte efficiency metric.
//
//	go run ./examples/placement_sweep            # defaults to hpcg
//	go run ./examples/placement_sweep -app snap
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	hm "repro"
)

func main() {
	app := flag.String("app", "hpcg", "workload to sweep")
	flag.Parse()

	w, err := hm.WorkloadByName(*app)
	if err != nil {
		log.Fatal(err)
	}
	// One sweep over the whole grid: the pipeline cells share one
	// profiling run and fan out across GOMAXPROCS workers.
	pts := hm.Figure4Points(w, 1)
	res, err := hm.RunSweep(pts, hm.SweepOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ddr := res[0].Run
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "config\t%s\tHWM MB\tdFOM/MB\tvs DDR\n", w.FOMUnit)
	fmt.Fprintf(tw, "DDR\t%.3f\t-\t-\t-\n", ddr.FOM)
	for i, r := range res[1:] {
		p := pts[1+i]
		if p.Baseline != nil {
			fmt.Fprintf(tw, "%s\t%.3f\t%d\t-\t%+.1f%%\n", p.Baseline.Baseline, r.Run.FOM, r.Run.HBWHWM/hm.MB,
				hm.ImprovementPct(r.Run.FOM, ddr.FOM))
			continue
		}
		budget := p.Pipeline.Budget
		fmt.Fprintf(tw, "%s @%dMB\t%.3f\t%d\t%.5f\t%+.1f%%\n",
			p.Pipeline.Strategy.Name(), budget/hm.MB, r.Run.FOM, r.Run.HBWHWM/hm.MB,
			hm.DeltaFOMPerMB(r.Run.FOM, ddr.FOM, budget),
			hm.ImprovementPct(r.Run.FOM, ddr.FOM))
	}
	tw.Flush()
}
