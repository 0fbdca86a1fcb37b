// Command hmemadvisor is Stage 3 of the framework: from Paramedir's
// per-object CSV and a memory configuration it computes the object
// distribution and writes the placement report that cmd/autohbw
// enforces at run time.
//
//	hmemadvisor -in hpcg.csv -budget 256M -strategy misses:5 -out hpcg.rpt
//	hmemadvisor -in snap.csv -budget 128M -strategy density -out snap.rpt
//
// -trace FILE additionally records the advise stage as flight-recorder
// JSONL: a manifest, the waterfall's per-tier packing steps and — under
// -strategy exact — the branch-and-bound solver's node/prune counters.
// Under -timeaware it holds the manifest only (see stage.Advise).
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	hm "repro"
	"repro/internal/obs"
	"repro/internal/stage"
	"repro/internal/units"
)

// parseBudget reads the -budget flag: a positive byte count with an
// optional K, M or G suffix. Errors quote the flag value as given.
func parseBudget(flagVal string) (int64, error) {
	s, mult := flagVal, int64(1)
	switch {
	case strings.HasSuffix(s, "G"):
		mult, s = units.GB, strings.TrimSuffix(s, "G")
	case strings.HasSuffix(s, "M"):
		mult, s = units.MB, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"):
		mult, s = units.KB, strings.TrimSuffix(s, "K")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	switch {
	case err != nil:
		return 0, fmt.Errorf("bad budget %q: %w", flagVal, err)
	case v <= 0:
		return 0, fmt.Errorf("bad budget %q: must be positive", flagVal)
	case v > math.MaxInt64/mult:
		return 0, fmt.Errorf("bad budget %q: overflows 64-bit bytes", flagVal)
	}
	return v * mult, nil
}

func main() {
	in := flag.String("in", "", "input Paramedir CSV (required)")
	out := flag.String("out", "", "output placement report (required)")
	budget := flag.String("budget", "256M", "fast-memory budget (e.g. 128M, 16G)")
	strategy := flag.String("strategy", "misses:0", "packing strategy: "+hm.StrategyGrammar)
	timeAware := flag.Bool("timeaware", false, "budget the peak concurrent footprint from the liveness timeline")
	predictTrace := flag.String("predict", "", "trace file to predict the placement's speedup against (optional)")
	app := flag.String("app", "", "workload name for -predict machine derivation (defaults to the profile's app)")
	tracePath := flag.String("trace", "", "record the advise stage as flight-recorder JSONL into this file")
	flag.Parse()

	if *in == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	b, err := parseBudget(*budget)
	if err != nil {
		fail(err)
	}
	strat, err := hm.StrategyByName(*strategy)
	if err != nil {
		fail(err)
	}
	f, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	prof, err := hm.ReadProfileCSV(f)
	f.Close()
	if err != nil {
		fail(err)
	}
	var rec *hm.FlightRecorder
	closeTrace := func() error { return nil }
	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		rec = hm.NewFlightRecorder(tf)
		closeTrace = func() error {
			err := rec.Err()
			if cerr := tf.Close(); err == nil {
				err = cerr
			}
			return err
		}
		obs.Emit(rec, hm.RunManifest{
			App:      prof.App,
			Strategy: strat.Name(),
			ConfigFP: hm.ConfigFingerprint(resultFlags()),
		})
	}
	rep, err := stage.Advise(context.Background(), prof, hm.TwoTier(b), strat, *timeAware, rec)
	if err != nil {
		fail(err)
	}
	if err := closeTrace(); err != nil {
		fail(fmt.Errorf("trace: %w", err))
	}
	o, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	defer o.Close()
	if err := rep.Write(o); err != nil {
		fail(err)
	}
	fmt.Printf("%s: strategy %s, budget %s: %d objects selected (%s promoted) -> %s\n",
		rep.App, rep.Strategy, units.HumanBytes(rep.Budget), len(rep.Entries),
		units.HumanBytes(rep.PromotedBytes()), *out)
	if d := rep.Degraded; d != nil {
		fmt.Printf("WARNING: exact solve degraded (%s after %d nodes): report carries the %s waterfall's placement, guaranteed >= %.3f of the optimal bound; rerun with -strategy exact-strict or a larger node budget for the exact answer\n",
			d.Reason, d.Nodes, d.Fallback, d.RatioBound)
	}
	if adv := rep.StaticAdvice(); len(adv) > 0 {
		fmt.Println("static objects worth promoting manually (the library cannot move them):")
		for _, e := range adv {
			fmt.Printf("  %s (%s, %d sampled misses)\n", e.ID, units.HumanBytes(e.Size), e.Misses)
		}
	}
	if *predictTrace != "" {
		name := *app
		if name == "" {
			name = prof.App
		}
		w, err := hm.WorkloadByName(name)
		if err != nil {
			fail(err)
		}
		tf, err := os.Open(*predictTrace)
		if err != nil {
			fail(err)
		}
		tr, err := hm.ReadTrace(tf)
		tf.Close()
		if err != nil {
			fail(err)
		}
		pred, err := hm.PredictPlacement(tr, rep, hm.MachineFor(w))
		if err != nil {
			fail(err)
		}
		fmt.Printf("predicted speedup vs DDR: %.2fx (%.1f%% of sampled misses moved) — no stage-4 run needed to screen\n",
			pred.SpeedupVsDDR, pred.MovedMissFraction*100)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hmemadvisor:", err)
	os.Exit(1)
}

// resultFlags maps every flag, set or defaulted, to its value, leaving
// out the output paths (-out, -trace). Where a run writes does not change its
// results, so the same run written to two files gets the same
// config_fp.
func resultFlags() map[string]string {
	vals := make(map[string]string)
	flag.VisitAll(func(f *flag.Flag) { vals[f.Name] = f.Value.String() })
	for _, name := range []string{"out", "trace"} {
		delete(vals, name)
	}
	return vals
}
