// Command experiments regenerates every table and figure of the
// paper's evaluation:
//
//	experiments -fig 1      STREAM Triad bandwidth vs cores (Figure 1)
//	experiments -fig 3      unwind vs translate cost by depth (Figure 3)
//	experiments -table 1    application characteristics (Table I)
//	experiments -fig 4      per-app FOM / HWM / ΔFOM-per-MB grids (Figure 4),
//	                        then the Section IV winner per application
//	experiments -fig 5      SNAP folded timeline (Figure 5)
//	experiments -online     static advisor vs online adaptive placement
//	experiments -ntier      three-tier (DDR+MCDRAM+NVM) placement sweep,
//	                        including the DDR-sizing sweep (how little
//	                        DDR can you buy before the waterfall gain
//	                        collapses)
//	experiments -numa       topology-aware vs topology-blind placement
//	                        on a dual-socket node, plus the bandwidth-
//	                        contention migration gate
//	experiments -all        everything, in paper order
//	experiments -trace FILE
//	                        record every sweep-shaped mode as flight-
//	                        recorder JSONL: run manifests, epoch and
//	                        migration-gate events, solver and packing
//	                        progress, sweep-cell lifecycle (DESIGN.md
//	                        "Observability")
//	experiments -trace-summary FILE
//	                        print the aggregate digest of a recorded
//	                        trace
//
// -metrics additionally dumps each sweep cell's always-on engine
// counters (page-table cache hits, arena reuse, allocation calls, ...).
//
// Use -app to restrict Figure 4 and the -online table to one
// application and -scale to shrink the simulated access volume for
// quick runs.
//
// The sweep-shaped modes (-fig 4, -online, -ntier, -numa) fan their
// grids through the hm.RunSweep engine: the Profile/Analyze prefix is
// computed once per distinct profiling configuration and the
// advise+execute cells run across a GOMAXPROCS-wide worker pool
// (-workers overrides), with results identical to the old serial
// loops. -cpuprofile/-memprofile capture pprof profiles of whatever
// modes run.
//
// EXPERIMENTS.md's measured blocks are verbatim copies of this
// command's stdout; TestExperimentsDoc re-runs each one and fails when
// a block drifts.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"

	hm "repro"
	"repro/internal/callstack"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/units"
)

// workers is the sweep worker-pool bound (0 = GOMAXPROCS).
var workers = flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")

// showMetrics prints each sweep cell's engine counter snapshot.
var showMetrics = flag.Bool("metrics", false, "print per-cell engine counters (page-table cache hits, arena reuse, ...) after each sweep")

// traceRec is the -trace flight recorder (nil = tracing off); every
// sweep-shaped mode feeds it through runSweep. traceClose finalizes
// the trace file and is invoked from flushProfiles so it runs on every
// exit path; it leaves the first write or close error in traceErr, on
// which main exits 1.
var traceRec *hm.FlightRecorder
var traceClose func()
var traceErr error

// strategyFlag overrides the pipeline packing strategy of the
// sweep-shaped modes (hm.StrategyByName grammar); "exact" additionally
// prints greedy-vs-exact optimality-gap tables (the exact solver is
// the oracle the greedy strategies are measured against).
var strategyFlag = flag.String("strategy", "",
	"override the -fig 4 / -ntier packing strategy: density | misses[:pct] | exact | exact-dp")

// stratOverride is the parsed -strategy value (nil = per-mode default).
var stratOverride hm.Strategy

// runSweep is the tool's one gateway to the sweep engine, so every
// mode honours -workers.
func runSweep(points []hm.SweepPoint) []hm.SweepResult {
	res, err := hm.RunSweep(points, hm.SweepOptions{Workers: *workers, Obs: traceRec})
	check(err)
	if *showMetrics {
		printMetrics(res)
	}
	return res
}

// printMetrics dumps each cell's always-on engine counters, sorted by
// key so output is diffable.
func printMetrics(res []hm.SweepResult) {
	for _, r := range res {
		if r.Run == nil || len(r.Run.Metrics) == 0 {
			continue
		}
		keys := make([]string, 0, len(r.Run.Metrics))
		for k := range r.Run.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("metrics %s:", r.Label)
		for _, k := range keys {
			fmt.Printf(" %s=%d", k, r.Run.Metrics[k])
		}
		fmt.Println()
	}
}

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (1, 3, 4, 5)")
	table := flag.Int("table", 0, "table to regenerate (1)")
	onl := flag.Bool("online", false, "compare static advisor vs online adaptive placement")
	ntier := flag.Bool("ntier", false, "three-tier placement sweep on a KNL+Optane node")
	numa := flag.Bool("numa", false, "topology-aware placement and contention-gated migration")
	chaos := flag.Int64("chaos", -1, "run the self-verifying seeded fault-injection sweep under this chaos seed (-1 = off; not part of -all)")
	all := flag.Bool("all", false, "regenerate everything")
	app := flag.String("app", "", "restrict -fig 4 and -online to one application")
	scale := flag.Float64("scale", 1.0, "access-volume scale factor")
	tracePath := flag.String("trace", "", "record every sweep-shaped mode as flight-recorder JSONL into this file")
	traceSummary := flag.String("trace-summary", "", "summarize an existing flight-recorder JSONL trace and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	flag.Parse()

	if *app != "" {
		_, err := hm.WorkloadByName(*app)
		check(err)
	}
	if *strategyFlag != "" {
		s, err := hm.StrategyByName(*strategyFlag)
		check(err)
		stratOverride = s
	}

	startProfiles(*cpuProfile, *memProfile)

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		check(err)
		traceRec = hm.NewFlightRecorder(f)
		// The file-level manifest identifies the tool invocation; each
		// simulated run adds its own manifest below it.
		obs.Emit(traceRec, hm.RunManifest{
			App:      "experiments",
			Workload: *app,
			Strategy: *strategyFlag,
			RefScale: *scale,
			ConfigFP: hm.ConfigFingerprint(resultFlags()),
		})
		traceClose = func() {
			traceErr = traceRec.Err()
			if err := f.Close(); traceErr == nil {
				traceErr = err
			}
			if traceErr != nil {
				fmt.Fprintln(os.Stderr, "experiments: trace:", traceErr)
			}
		}
	}

	any := false
	if *traceSummary != "" {
		summarizeTrace(*traceSummary)
		any = true
	}
	if *all || *fig == 1 {
		figure1()
		any = true
	}
	if *all || *fig == 3 {
		figure3()
		any = true
	}
	if *all || *table == 1 {
		tableI(*scale)
		any = true
	}
	if *all || *fig == 4 {
		figure4(*app, *scale)
		any = true
	}
	if *all || *fig == 5 {
		figure5(*scale)
		any = true
	}
	if *all || *onl {
		onlineTable(*app, *scale)
		any = true
	}
	if *all || *ntier {
		ntierTable(*scale)
		any = true
	}
	if *all || *numa {
		numaTable(*scale)
		any = true
	}
	if *chaos >= 0 {
		chaosTable(uint64(*chaos), *scale)
		any = true
	}
	if !any {
		flushProfiles()
		flag.Usage()
		os.Exit(2)
	}
	flushProfiles()
	if traceErr != nil {
		os.Exit(1)
	}
}

// profileFlush finalizes -cpuprofile/-memprofile exactly once. Every
// exit path must go through flushProfiles — os.Exit skips defers, so
// check() and the usage path call it explicitly — or the pprof files
// would be left empty/missing.
var profileFlush func()
var profileFlushOnce sync.Once

func startProfiles(cpuPath, memPath string) {
	var cpuStop func()
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		check(err)
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			check(err)
		}
		cpuStop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	profileFlush = func() {
		if cpuStop != nil {
			cpuStop()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}
	}
}

func flushProfiles() {
	profileFlushOnce.Do(func() {
		if profileFlush != nil {
			profileFlush()
		}
		if traceClose != nil {
			traceClose()
		}
	})
}

// summarizeTrace renders the aggregate digest of a recorded trace.
func summarizeTrace(path string) {
	f, err := os.Open(path)
	check(err)
	defer f.Close()
	s, err := hm.SummarizeTrace(f)
	check(err)
	check(s.WriteText(os.Stdout))
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

// figure1 reproduces the STREAM Triad bandwidth curves.
func figure1() {
	header("Figure 1: STREAM Triad bandwidth (GB/s) vs cores")
	w := hm.StreamWorkload()
	// Per-thread view: each core streams through its own 1 MB L2 tile
	// share, so the default LLC is the right filter.
	node := hm.DefaultKNL()

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "cores\tDDR\tMCDRAM/Flat\tMCDRAM/Cache")
	for _, cores := range hm.StreamCoreCounts() {
		cfg := hm.ExecuteConfig{Machine: node, Cores: cores, Seed: 7}
		ddr, err := hm.RunBaseline(w, hm.BaselineDDR, cfg)
		check(err)
		flat, err := hm.RunBaseline(w, hm.BaselineNumactl, cfg)
		check(err)
		cache, err := hm.RunBaseline(w, hm.BaselineCacheMode, cfg)
		check(err)
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%.1f\n", cores, ddr.FOM, flat.FOM, cache.FOM)
	}
	tw.Flush()
}

// figure3 reproduces the unwind/translate overhead breakdown.
func figure3() {
	header("Figure 3: call-stack unwind vs translate cost (µs) by depth")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "depth\tunwind\ttranslate\ttotal")
	for d := 1; d <= 9; d++ {
		u := callstack.UnwindCost(d).Micros(units.DefaultClockHz)
		t := callstack.TranslateCost(d).Micros(units.DefaultClockHz)
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%.1f\n", d, u, t, u+t)
	}
	tw.Flush()
	fmt.Printf("translate overtakes unwind beyond depth %d\n", callstack.CrossoverDepth())
}

// tableI reproduces the application-characteristics table.
func tableI(scale float64) {
	header("Table I: application characteristics (simulated)")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tlang\tparallelism\tgeometry\tFOM\tallocs(m/r/f/n/d/a/D)\tallocs/s\tHWM MB\toverhead%\tsamples\tsamples/s")
	for _, w := range hm.Workloads() {
		m := hm.MachineFor(w)
		// Single-process (OpenMP-only) workloads aggregate the whole
		// node's miss stream in one process; sample them with a
		// proportionally longer period, as per-core PEBS does.
		var period uint64
		if w.Ranks <= 1 {
			period = hm.DefaultScaledPeriod * 4
		}
		_, res, err := hm.Profile(w, hm.ProfileConfig{Machine: m, Seed: 11, RefScale: scale, SamplePeriod: period})
		check(err)
		geom := fmt.Sprintf("%d ranks x %d thr", w.Ranks, w.Threads)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%.1f\t%d\t%.2f\t%d\t%.1f\n",
			w.Name, w.Language, w.Parallelism, geom, w.FOMName,
			w.AllocStatements,
			float64(res.AllocCalls)/res.Seconds,
			res.TotalHWM/units.MB,
			res.MonitorOverheadFraction()*100,
			res.Samples,
			float64(res.Samples)/res.Seconds)
	}
	tw.Flush()
}

type fig4Row struct {
	label string
	fom   float64
	hwm   int64
	dfom  float64
}

// figure4 reproduces the per-application placement comparison and,
// over the whole default grid (no -app, no -strategy), the Section IV
// summary.
func figure4(only string, scale float64) {
	if only == "" {
		apps := hm.Workloads()
		grids := make([][]hm.SweepResult, len(apps))
		for i, w := range apps {
			grids[i] = figure4App(w, scale)
		}
		if stratOverride == nil {
			sectionIV(apps, grids)
		}
		return
	}
	for _, w := range hm.Workloads() {
		if w.Name == only {
			figure4App(w, scale)
			return
		}
	}
	fmt.Printf("fig 4: %q is not a Table I workload (phaseshift appears in -online only)\n", only)
}

// figure4App prints one application's Figure 4 grid and returns its
// results. Every pipeline cell shares one memoized profile (same
// workload, machine, seed and scale), so the grid costs one profiling
// run plus the advise+execute fan-out.
func figure4App(w *hm.Workload, scale float64) []hm.SweepResult {
	header(fmt.Sprintf("Figure 4: %s (%s)", w.Name, w.FOMUnit))
	var strategies []hm.Strategy
	if stratOverride != nil {
		strategies = []hm.Strategy{stratOverride}
	}
	pts := hm.Figure4Points(w, scale, strategies...)
	res := runSweep(pts)
	ddr := res[0].Run

	mcTotal := int64(16 * units.GB)
	if w.Ranks > 1 {
		mcTotal /= int64(w.Ranks)
	}
	rows := []fig4Row{
		{res[0].Label, ddr.FOM, 0, 0},
		{res[1].Label, res[1].Run.FOM, res[1].Run.HBWHWM, hm.DeltaFOMPerMB(res[1].Run.FOM, ddr.FOM, mcTotal)},
		{res[2].Label, res[2].Run.FOM, res[2].Run.HBWHWM, 0},
		{res[3].Label, res[3].Run.FOM, 0, hm.DeltaFOMPerMB(res[3].Run.FOM, ddr.FOM, mcTotal)},
	}
	var budgets []int64
	for i, r := range res[4:] {
		budget := pts[4+i].Pipeline.Budget
		rows = append(rows, fig4Row{
			label: r.Label,
			fom:   r.Run.FOM,
			hwm:   r.Run.HBWHWM,
			dfom:  hm.DeltaFOMPerMB(r.Run.FOM, ddr.FOM, budget),
		})
		budgets = append(budgets, budget)
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "config\t%s\tHWM MB\tΔFOM/MB\tvs DDR%%\n", w.FOMUnit)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%d\t%.5f\t%+.1f%%\n",
			r.label, r.fom, r.hwm/units.MB, r.dfom, hm.ImprovementPct(r.fom, ddr.FOM))
	}
	tw.Flush()

	if stratOverride != nil && stratOverride.Name() == "exact" {
		var cells []*hm.PipelineResult
		for _, r := range res[4:] {
			cells = append(cells, r.Pipeline)
		}
		gapTable("greedy-vs-exact objective gap (fraction of the exact knapsack optimum):",
			budgets, cells, func(i int) hm.MemoryConfig { return hm.TwoTier(budgets[i]) })
	}
	return res
}

// sectionIV prints the Section IV.D discussion table from every
// application's default Figure 4 grid: the four baselines against the
// framework's best FOM — the better of density and misses(0%) at the
// largest swept budget — and which approach wins.
func sectionIV(apps []*hm.Workload, grids [][]hm.SweepResult) {
	header("Section IV: winner per application (framework = better of density/misses(0%) at the largest budget)")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tDDR\tnumactl\tautohbw\tcache\tframework\twinner")
	for a, w := range apps {
		res := grids[a]
		ddr, numactl, autohbw, cache := res[0].Run.FOM, res[1].Run.FOM, res[2].Run.FOM, res[3].Run.FOM
		// The grid is budget-major over density, misses(0%), misses(1%)
		// and misses(5%): the largest budget's first two cells are the
		// framework's candidates.
		n := len(res)
		best := max(res[n-4].Run.FOM, res[n-3].Run.FOM)
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
}

// gapTable prints, per budget, each greedy strategy's placement
// objective as a fraction of its exact pipeline cell's — the
// greedy-vs-exact optimality gap the -strategy exact modes report.
// cells[i] must be the exact-strategy pipeline result advised against
// mcFor(i); the greedy reports are recomputed from its memoized
// profile (advising is cheap next to the runs already done).
func gapTable(caption string, budgets []int64, cells []*hm.PipelineResult, mcFor func(int) hm.MemoryConfig) {
	fmt.Println("\n" + caption)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "budget\tmisses(0%)\tdensity")
	for i, pr := range cells {
		mcfg := mcFor(i)
		exactObj := hm.PlacementObjective(pr.Profile, pr.Report, mcfg)
		ratioOf := func(s hm.Strategy) float64 {
			rep, err := hm.AdviseHierarchy(context.Background(), pr.Profile, mcfg, s, nil)
			check(err)
			if exactObj == 0 {
				return 1
			}
			return hm.PlacementObjective(pr.Profile, rep, mcfg) / exactObj
		}
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\n", units.HumanBytes(budgets[i]),
			ratioOf(hm.StrategyMisses(0)), ratioOf(hm.StrategyDensity))
	}
	tw.Flush()
}

// onlineTable compares the offline framework against the online
// adaptive placer (epoch-driven re-advising with live migration) at
// the same per-rank budget, with cache mode as the hardware-adaptive
// reference. The phaseshift workload is the one whose hot set moves;
// on the stable Table I applications the online gate should keep
// migration traffic at (or near) zero.
func onlineTable(only string, scale float64) {
	header("Online adaptive placement: static advisor vs online vs cache")
	if scale < 1 {
		// Scaling shrinks access volume (and thus predicted gain) but
		// not the bytes a migration must move, so the gate rightly
		// refuses moves that a full-length run would amortize.
		fmt.Printf("note: -scale %g shortens the run; migration amortizes less and the online placer moves less than at full scale\n", scale)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tbudget\tDDR\tstatic\tonline\tcache\tepochs\tmigrated MB\tonline vs static")
	names := []string{"phaseshift"}
	for _, w := range hm.Workloads() {
		names = append(names, w.Name)
	}
	// One sweep over every application's four runs: all cells fan out
	// together across the pool, four cells per printed row.
	var pts []hm.SweepPoint
	var rows []struct {
		name   string
		budget int64
	}
	for _, name := range names {
		if only != "" && name != only {
			continue
		}
		w, err := hm.WorkloadByName(name)
		check(err)
		m := hm.MachineFor(w)
		budget := 16 * units.MB // phaseshift: one rotating group
		if name != "phaseshift" {
			budgets := hm.BudgetsFor(w)
			budget = budgets[len(budgets)-1]
		}
		cfg := hm.ExecuteConfig{Machine: m, Seed: 21, RefScale: scale}
		pts = append(pts,
			hm.BaselinePoint(name+"/ddr", w, hm.BaselineDDR, cfg),
			hm.BaselinePoint(name+"/cache", w, hm.BaselineCacheMode, cfg),
			hm.PipelinePoint(name+"/static", w, hm.PipelineConfig{
				Machine: m, Seed: 21, Budget: budget,
				Strategy: hm.StrategyMisses(0), RefScale: scale,
			}),
			hm.OnlinePoint(name+"/online", w, hm.OnlineConfig{
				Machine: m, Seed: 21, RefScale: scale, Budget: budget,
			}),
		)
		rows = append(rows, struct {
			name   string
			budget int64
		}{name, budget})
	}
	res := runSweep(pts)
	for i, row := range rows {
		ddr, cache, static, onl := res[4*i].Run, res[4*i+1].Run, res[4*i+2].Run, res[4*i+3].Run
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.3f\t%.3f\t%d\t%d\t%+.1f%%\n",
			row.name, units.HumanBytes(row.budget), ddr.FOM, static.FOM, onl.FOM, cache.FOM,
			onl.Epochs, onl.MigratedBytes/units.MB,
			hm.ImprovementPct(onl.FOM, static.FOM))
	}
	tw.Flush()
}

// ntierTable sweeps the three-tier KNL+Optane node: per MCDRAM
// budget, the placement-oblivious DDR run, the paper's two-tier
// advisor (whose DDR overflow spills to NVM by allocation order), the
// N-tier waterfall (which banishes cold data to NVM explicitly), and
// the online placer re-solving the same waterfall per epoch.
func ntierTable(scale float64) {
	header("Three-tier sweep: DDR 1.5 GB + MCDRAM + NVM 8 GB per rank (ntierdemo)")
	pts := hm.NTierPoints(scale, stratOverride)
	w, m := pts[0].Workload, pts[0].Baseline.Config.Machine
	res := runSweep(pts)
	ddr := res[0].Run

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "config\t%s\tMCDRAM MB\tNVM MB\tvs DDR%%\n", w.FOMUnit)
	for _, r := range res {
		fmt.Fprintf(tw, "%s\t%.3f\t%d\t%d\t%+.1f%%\n",
			r.Label, r.Run.FOM,
			r.Run.TierHWMs[hm.TierMCDRAM]/units.MB,
			r.Run.TierHWMs[hm.TierNVM]/units.MB,
			hm.ImprovementPct(r.Run.FOM, ddr.FOM))
	}
	onl := res[len(res)-1].Run
	fmt.Fprintf(tw, "online epochs/migrated MB\t%d\t%d\t\t\n", onl.Epochs, onl.MigratedBytes/units.MB)
	tw.Flush()

	if stratOverride != nil && stratOverride.Name() == "exact" {
		// NTierPoints' layout: cell 2i+1 is the i-th budget's
		// two-tier cell, cell 2i+2 its waterfall cell.
		var budgets []int64
		var cells []*hm.PipelineResult
		for i := 1; i < len(pts)-1; i += 2 {
			budgets = append(budgets, pts[i].Pipeline.Budget)
			cells = append(cells, res[i+1].Pipeline)
		}
		gapTable("waterfall-vs-exact objective gap (fraction of the exact N-tier optimum):",
			budgets, cells, func(i int) hm.MemoryConfig { return *pts[2*i+2].Pipeline.Memory })
	}

	ddrSizingSweep(w, m, ddr, scale)
}

// ddrSizingSweep answers the Optane provisioning question — how little
// DRAM can you buy? — by shrinking the per-rank DDR tier under the
// waterfall advisor (MCDRAM budget fixed at 256 MB) and watching the
// gain over the oblivious run collapse as warm data is forced onto the
// NVM floor.
func ddrSizingSweep(w *hm.Workload, m hm.Machine, ddr *hm.RunResult, scale float64) {
	header("DDR sizing sweep: waterfall @256 MB MCDRAM, shrinking DDR (ntierdemo)")
	// Every cell profiles on a DIFFERENT machine (the shrunk DDR
	// changes the profiling run itself), so nothing memoizes — but the
	// five pipelines still fan out across the pool.
	var pts []hm.SweepPoint
	for _, ddrCap := range []int64{1536 * units.MB, 1024 * units.MB, 768 * units.MB, 512 * units.MB, 256 * units.MB} {
		shrunk := m
		shrunk.Tiers = append([]hm.TierSpec{}, m.Tiers...)
		for i := range shrunk.Tiers {
			if shrunk.Tiers[i].ID == hm.TierDDR {
				shrunk.Tiers[i].Capacity = ddrCap
			}
		}
		mc := hm.MemoryConfigFor(shrunk, 256*units.MB)
		pts = append(pts, hm.PipelinePoint(units.HumanBytes(ddrCap), w, hm.PipelineConfig{
			Machine: shrunk, Seed: 42, Memory: &mc, RefScale: scale,
		}))
	}
	res := runSweep(pts)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "DDR size\t%s\tDDR HWM MB\tNVM MB\tvs full-DDR run%%\n", w.FOMUnit)
	for _, r := range res {
		fmt.Fprintf(tw, "%s\t%.3f\t%d\t%d\t%+.1f%%\n",
			r.Label, r.Run.FOM,
			r.Run.TierHWMs[hm.TierDDR]/units.MB,
			r.Run.TierHWMs[hm.TierNVM]/units.MB,
			hm.ImprovementPct(r.Run.FOM, ddr.FOM))
	}
	tw.Flush()
	fmt.Println("reading: the waterfall holds its gain while DDR still fits the warm set; once warm data spills to NVM the advantage collapses toward the oblivious run")
}

// numaTable runs the two topology acceptance scenarios.
//
// Placement: on a dual-socket rank (near DDR + remote HBM + near NVM)
// the topology-aware advisor keeps the hot set on near DDR, because
// the cross-socket distance makes the raw-faster HBM slower
// end-to-end; the topology-blind advisor (same tiers, distance
// stripped) ships the hot set across the link and loses.
//
// Contention: on a machine whose DDR and MCDRAM share a controller
// group, the online gate re-prices migrations against the epoch's
// concurrent traffic — a plan profitable at idle bandwidth is
// refused, shown both as a direct pricing table and end-to-end.
func numaTable(scale float64) {
	header("Topology-aware placement: near DDR vs remote HBM (dual-socket rank)")
	pts := hm.TopologyPoints(scale)
	w, m := pts[0].Workload, pts[0].Baseline.Config.Machine

	fmt.Println("per-rank tiers as priced from socket 0 (the rank's pin):")
	for _, t := range m.Tiers {
		fmt.Printf("  %-4s %8s  domain %d  raw perf %.2f  distance %.1f  effective %.2f\n",
			t.Name, units.HumanBytes(t.Capacity), t.Domain,
			t.RelativePerf, m.TierDistance(t), m.EffectivePerf(t))
	}

	res := runSweep(pts)
	ddr := res[0].Run

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "advisor\t%s\tHBM MB\tNVM MB\tvs DDR%%\n", w.FOMUnit)
	for _, r := range res {
		fmt.Fprintf(tw, "%s\t%.3f\t%d\t%d\t%+.1f%%\n",
			r.Label, r.Run.FOM,
			r.Run.TierHWMs[hm.TierHBM]/units.MB,
			r.Run.TierHWMs[hm.TierNVM]/units.MB,
			hm.ImprovementPct(r.Run.FOM, ddr.FOM))
	}
	tw.Flush()

	contentionGateDemo(scale)
}

// contentionGateDemo prices one concrete migration plan at idle vs
// concurrent bandwidth and then shows the end-to-end effect on the
// online placer.
func contentionGateDemo(scale float64) {
	header("Bandwidth-contention migration gate (shared DDR+MCDRAM controller)")
	w, err := hm.WorkloadByName("phaseshift")
	check(err)
	plainM := hm.MachineFor(w)
	sharedM := hm.WithSharedControllers(plainM, 1, hm.TierDDR, hm.TierMCDRAM)

	// Direct pricing: a 16 MB promotion whose predicted gain clears the
	// idle gate threshold 2x over, against an epoch streaming DDR at
	// 80% of its effective bandwidth.
	const moveBytes = 16 * units.MB
	const hysteresis = 1.5
	cores := sharedM.Cores
	ddrTier, _ := sharedM.Tier(hm.TierDDR)
	window := units.Cycles(int64(sharedM.ClockHz / 50)) // a 20 ms epoch
	demandBytes := int64(0.8 * ddrTier.EffectiveBandwidth(cores) / 50)
	idle := mem.MigrationTime(&sharedM, cores, moveBytes, hm.TierDDR, hm.TierMCDRAM)
	busy := mem.MigrationTimeUnder(&sharedM, cores, moveBytes, hm.TierDDR, hm.TierMCDRAM,
		map[hm.TierID]int64{hm.TierDDR: demandBytes}, window)
	perMiss := predict.EpochDelta(&sharedM, cores, 1_000_000, hm.TierDDR, hm.TierMCDRAM) / 1e6
	gain := 2 * hysteresis * float64(idle) // passes the idle gate with 2x margin
	misses := int64(gain / perMiss)

	fmt.Printf("plan: promote %s DDR->MCDRAM; epoch serves %d misses off the moved pages\n",
		units.HumanBytes(moveBytes), misses)
	fmt.Printf("  predicted epoch gain:        %12.0f cycles\n", gain)
	fmt.Printf("  idle migration cost:         %12d cycles -> gate %.1fx cost: ACCEPT\n",
		idle, gain/float64(idle))
	fmt.Printf("  cost under concurrent DDR streaming (80%% of bandwidth): %d cycles -> gate %.2fx cost: REJECT\n",
		busy, gain/float64(busy))

	// End to end: the same online run, plain vs shared controllers.
	endToEnd := runSweep([]hm.SweepPoint{
		hm.OnlinePoint("plain", w, hm.OnlineConfig{Machine: plainM, Seed: 21, RefScale: scale, Budget: 16 * units.MB}),
		hm.OnlinePoint("shared", w, hm.OnlineConfig{Machine: sharedM, Seed: 21, RefScale: scale, Budget: 16 * units.MB}),
	})
	plain, shared := endToEnd[0].Run, endToEnd[1].Run
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "\ncontrollers\t%s\tepochs\tmigrations\tmigrated MB\n", w.FOMUnit)
	fmt.Fprintf(tw, "dedicated (idle pricing)\t%.3f\t%d\t%d\t%d\n",
		plain.FOM, plain.Epochs, plain.Migrations, plain.MigratedBytes/units.MB)
	fmt.Fprintf(tw, "shared DDR+MCDRAM (contended pricing)\t%.3f\t%d\t%d\t%d\n",
		shared.FOM, shared.Epochs, shared.Migrations, shared.MigratedBytes/units.MB)
	tw.Flush()
	fmt.Println("reading: with the controller shared, the gate refuses moves the idle model would have taken — migration traffic drops")
}

// figure5 reproduces the SNAP folded timeline.
func figure5(scale float64) {
	header("Figure 5: SNAP folded main-iteration timeline (framework placement)")
	w, err := hm.WorkloadByName("snap")
	check(err)
	m := hm.MachineFor(w)
	pr, err := hm.Pipeline(w, hm.PipelineConfig{
		Machine: m, Seed: 31, Budget: 256 * units.MB,
		Strategy: hm.StrategyMisses(0), RefScale: scale,
		SamplePeriod: 600,
	})
	check(err)
	// Fold the *production* run: re-profile it (monitored) under the
	// framework placement to collect samples.
	tr2, _, err := profileUnderFramework(w, m, pr.Report, scale)
	check(err)
	f, err := hm.Fold(tr2, 48, m.ClockHz)
	check(err)

	fmt.Printf("iterations folded: %d; canonical iteration: %.2f ms\n",
		f.Iterations, f.MeanIterationCycles.Seconds(m.ClockHz)*1e3)
	fmt.Println("\nroutine spans (fraction of iteration):")
	for _, s := range f.Spans {
		fmt.Printf("  %-16s %.2f..%.2f\n", s.Routine, s.StartFrac, s.EndFrac)
	}
	fmt.Println("\nMIPS curve (one row per bin):")
	max := f.GlobalMaxMIPS()
	for _, b := range f.Bins {
		bar := int(b.MIPS / max * 50)
		fmt.Printf("  %.2f %8.0f %s\n", b.StartFrac, b.MIPS, strings.Repeat("#", bar))
	}
	if minM, _, ok := f.MinMIPSIn("outer_src_calc"); ok {
		fmt.Printf("\nouter_src_calc min MIPS: %.0f (global max %.0f) — the stack-spill dip\n", minM, max)
	}
}

// profileUnderFramework runs w monitored while honouring the report —
// the run Figure 5 visualizes.
func profileUnderFramework(w *hm.Workload, m hm.Machine, rep *hm.PlacementReport, scale float64) (*hm.Trace, *hm.RunResult, error) {
	return hm.ProfileWithPolicy(w, hm.ProfileConfig{
		Machine: m, Seed: 33, RefScale: scale, SamplePeriod: 600,
	}, rep)
}

func check(err error) {
	if err != nil {
		flushProfiles()
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// resultFlags maps every flag, set or defaulted, to its value, leaving
// out the output paths (-trace, -cpuprofile, -memprofile). Where a run
// writes does not change its results, so the same run written to two
// files gets the same config_fp.
func resultFlags() map[string]string {
	vals := make(map[string]string)
	flag.VisitAll(func(f *flag.Flag) { vals[f.Name] = f.Value.String() })
	for _, name := range []string{"trace", "cpuprofile", "memprofile"} {
		delete(vals, name)
	}
	return vals
}
