package main

// The -chaos mode: a seeded fault-injection run over a mixed sweep
// grid, self-verifying the robustness contract end to end —
//
//   - every planned fault fires and fails ONLY its victim cell,
//   - every unaffected cell is bit-identical to a fault-free sweep,
//   - the starved exact solver degrades to the density waterfall and
//     says so in its report,
//   - a second run from the same seed reproduces all of it.
//
// The mode exits non-zero if any of that fails, so CI can run it as a
// smoke test; with -trace the run's cell_failed/degrade events land
// in the flight-recorder JSONL for post-mortem inspection.

import (
	"errors"
	"fmt"
	"os"
	"reflect"

	hm "repro"
	"repro/internal/units"
)

// chaosSpec is the fault mix the mode injects: one shared-setup
// failure, one injected cell error, one cell panic, allocation
// failures and epoch stalls in one victim cell each, and a starved
// exact solver.
func chaosSpec() hm.FaultSpec {
	return hm.FaultSpec{
		SetupErrors:      1,
		CellErrors:       1,
		CellPanics:       1,
		AllocFails:       1,
		AllocFailEvery:   3,
		EpochDelays:      1,
		EpochDelayEvery:  2,
		EpochDelayCycles: 1e6,
		SolverNodeBudget: 1,
	}
}

// chaosGrid is the 9-cell mixed grid the mode sweeps: baselines, a
// minife pipeline plane sharing one profile, a second profiling seed,
// an online cell (the epoch-stall target), and a three-tier
// exact-solver cell (the starvation target).
func chaosGrid(scale float64) []hm.SweepPoint {
	wm, err := hm.WorkloadByName("minife")
	check(err)
	mm := hm.MachineFor(wm)
	wn := hm.NTierDemoWorkload()
	mn := hm.PerRankMachine(hm.KNLOptane(), wn.Ranks, wn.Threads)
	mc := hm.MemoryConfigFor(mn, 256*units.MB)
	rs := 0.25 * scale
	return []hm.SweepPoint{
		hm.BaselinePoint("ddr", wm, hm.BaselineDDR, hm.ExecuteConfig{Machine: mm, Seed: 21, RefScale: rs}),
		hm.PipelinePoint("m0/32", wm, hm.PipelineConfig{Machine: mm, Seed: 21, Budget: 32 * units.MB, RefScale: rs}),
		hm.PipelinePoint("density/32", wm, hm.PipelineConfig{Machine: mm, Seed: 21, Budget: 32 * units.MB, Strategy: hm.StrategyDensity, RefScale: rs}),
		hm.PipelinePoint("density/128", wm, hm.PipelineConfig{Machine: mm, Seed: 21, Budget: 128 * units.MB, Strategy: hm.StrategyDensity, RefScale: rs}),
		hm.PipelinePoint("otherseed", wm, hm.PipelineConfig{Machine: mm, Seed: 77, Budget: 128 * units.MB, RefScale: rs}),
		hm.OnlinePoint("online", wm, hm.OnlineConfig{Machine: mm, Seed: 21, RefScale: rs, Budget: 128 * units.MB}),
		hm.PipelinePoint("exact3", wn, hm.PipelineConfig{Machine: mn, Seed: 42, Memory: &mc, Strategy: hm.StrategyExactNTier, RefScale: 2 * rs}),
		hm.BaselinePoint("cache", wm, hm.BaselineCacheMode, hm.ExecuteConfig{Machine: mm, Seed: 21, RefScale: rs}),
		hm.OnlinePoint("online/refs", wm, hm.OnlineConfig{Machine: mm, Seed: 21, RefScale: rs, Budget: 64 * units.MB, EveryIterations: 2}),
	}
}

// chaosTable runs the chaos acceptance sweep under the given fault
// seed and verifies the robustness contract, exiting non-zero on any
// violation.
func chaosTable(seed uint64, scale float64) {
	pts := chaosGrid(scale)
	spec := chaosSpec()
	fmt.Printf("== chaos sweep: %d cells, fault seed %d ==\n", len(pts), seed)

	clean := runSweep(pts) // fault-free reference; check() guards it

	run := func() ([]hm.SweepResult, *hm.FaultInjector) {
		f := hm.NewFaultInjector(seed, spec)
		// Cell failures are this mode's subject, not a tool error:
		// the per-cell Err slots are inspected instead of check().
		res, _ := hm.RunSweep(pts, hm.SweepOptions{Workers: *workers, Obs: traceRec, Fault: f})
		return res, f
	}
	chaos, inj := run()

	// Cells the plan legitimately perturbs without failing: epoch
	// stalls change a victim's simulated clock, solver starvation
	// swaps the exact cell's placement for the waterfall's.
	delayV := inj.Victims(hm.FaultEpochDelay, len(pts))
	perturbed := make([]bool, len(pts))
	for i := range pts {
		if delayV != nil && delayV[i] {
			perturbed[i] = true
		}
		if r := chaos[i]; r.Pipeline != nil && r.Pipeline.Report != nil && r.Pipeline.Report.Degraded != nil {
			perturbed[i] = true
		}
	}

	bad := false
	failed := 0
	for i, r := range chaos {
		status := "ok"
		switch {
		case r.Err != nil:
			failed++
			class := "error"
			switch {
			case errors.Is(r.Err, hm.ErrCellPanic):
				class = "recovered panic"
			case errors.Is(r.Err, hm.ErrFaultInjected):
				class = "injected error"
			case errors.Is(r.Err, hm.ErrCanceled):
				class = "canceled"
			}
			status = "FAILED (" + class + ")"
		case r.Pipeline != nil && r.Pipeline.Report != nil && r.Pipeline.Report.Degraded != nil:
			d := r.Pipeline.Report.Degraded
			status = fmt.Sprintf("ok, degraded (%s -> %s after %d nodes, >= %.3f of optimal bound)",
				d.Reason, d.Fallback, d.Nodes, d.RatioBound)
		case perturbed[i]:
			status = "ok, perturbed (injected epoch stalls)"
		case !reflect.DeepEqual(r.Run, clean[i].Run):
			status = "DIVERGED from fault-free sweep"
			bad = true
		}
		fmt.Printf("%-14s %s\n", r.Label, status)
	}
	if failed == 0 {
		fmt.Fprintln(os.Stderr, "experiments: chaos: no cell failed — the plan injected nothing")
		bad = true
	}

	// Reproducibility: the same seed must produce the same carnage.
	again, _ := run()
	for i := range pts {
		if (again[i].Err == nil) != (chaos[i].Err == nil) {
			fmt.Fprintf(os.Stderr, "experiments: chaos: cell %d (%s) failure not reproducible\n", i, pts[i].Label)
			bad = true
			continue
		}
		if again[i].Err == nil && !reflect.DeepEqual(again[i].Run, chaos[i].Run) {
			fmt.Fprintf(os.Stderr, "experiments: chaos: cell %d (%s) result not reproducible\n", i, pts[i].Label)
			bad = true
		}
	}

	if !chaosCacheTable(seed, scale) {
		bad = true
	}

	fired := inj.Counts()
	fmt.Printf("fired:")
	for _, p := range []hm.FaultPoint{hm.FaultSweepSetup, hm.FaultSweepCellError, hm.FaultSweepCellPanic, hm.FaultAllocFail, hm.FaultEpochDelay, hm.FaultSolverStarve} {
		fmt.Printf(" %s=%d", p, fired[p])
	}
	fmt.Println()
	if bad {
		flushProfiles()
		fmt.Fprintln(os.Stderr, "experiments: chaos verification FAILED")
		os.Exit(1)
	}
	fmt.Printf("chaos verification passed: %d/%d cells failed as planned, survivors bit-identical, reproducible from seed %d\n",
		failed, len(pts), seed)
}

// chaosCacheTable is the artifact-cache leg of the chaos mode: every
// profile artifact committed through an armed cache-corrupt scope is
// garbled on disk (a torn write — the body changes AFTER checksumming,
// so the entry's header no longer matches it), and the next clean sweep over
// the same directory must detect each damaged entry, recompute, and
// come out bit-identical. A corrupt cache may slow a sweep down; it
// must never poison one. Returns false on any violation.
func chaosCacheTable(seed uint64, scale float64) bool {
	wm, err := hm.WorkloadByName("minife")
	check(err)
	mm := hm.MachineFor(wm)
	rs := 0.25 * scale
	pts := []hm.SweepPoint{
		hm.PipelinePoint("m0/32", wm, hm.PipelineConfig{Machine: mm, Seed: 21, Budget: 32 * units.MB, RefScale: rs}),
		hm.PipelinePoint("density/128", wm, hm.PipelineConfig{Machine: mm, Seed: 21, Budget: 128 * units.MB, Strategy: hm.StrategyDensity, RefScale: rs}),
		hm.PipelinePoint("otherseed", wm, hm.PipelineConfig{Machine: mm, Seed: 77, Budget: 128 * units.MB, RefScale: rs}),
	}
	clean := runSweep(pts)

	dir, err := os.MkdirTemp("", "hmem-chaos-cache-")
	check(err)
	defer os.RemoveAll(dir)

	ok := true
	sameAs := func(label string, res []hm.SweepResult) {
		for i := range pts {
			if res[i].Err != nil {
				fmt.Fprintf(os.Stderr, "experiments: chaos: cache %s: cell %d (%s) failed: %v\n", label, i, pts[i].Label, res[i].Err)
				ok = false
				continue
			}
			if !reflect.DeepEqual(res[i].Run, clean[i].Run) {
				fmt.Fprintf(os.Stderr, "experiments: chaos: cache %s: cell %d (%s) diverged from the cache-less sweep\n", label, i, pts[i].Label)
				ok = false
			}
		}
	}

	// Pass 1: every commit garbled in flight.
	inj := hm.NewFaultInjector(seed, hm.FaultSpec{CacheCorrupts: 1, CacheCorruptEvery: 1})
	evil, err := hm.OpenArtifactCache(dir, inj.Scope("cache", hm.FaultCacheCorrupt))
	check(err)
	res, _ := hm.RunSweep(pts, hm.SweepOptions{Workers: *workers, Cache: evil})
	sameAs("corrupting", res)
	garbled := inj.Counts()[hm.FaultCacheCorrupt]
	if garbled == 0 {
		fmt.Fprintln(os.Stderr, "experiments: chaos: cache-corrupt injector never fired")
		ok = false
	}

	// Pass 2: a clean handle over the damaged directory — detect,
	// recompute, heal.
	healer, err := hm.OpenArtifactCache(dir, nil)
	check(err)
	res, _ = hm.RunSweep(pts, hm.SweepOptions{Workers: *workers, Cache: healer})
	sameAs("recovery", res)
	hst := healer.Stats()
	if hst.Corrupt == 0 {
		fmt.Fprintf(os.Stderr, "experiments: chaos: corrupted cache entries went undetected: %+v\n", hst)
		ok = false
	}

	// Pass 3: the recompute healed the entries — a third handle serves
	// every profile from disk.
	warm, err := hm.OpenArtifactCache(dir, nil)
	check(err)
	res, _ = hm.RunSweep(pts, hm.SweepOptions{Workers: *workers, Cache: warm})
	sameAs("healed", res)
	wst := warm.Stats()
	if wst.Hits == 0 || wst.Misses != 0 {
		fmt.Fprintf(os.Stderr, "experiments: chaos: healed cache did not serve from disk: %+v\n", wst)
		ok = false
	}

	status := "survived"
	if !ok {
		status = "FAILED"
	}
	fmt.Printf("cache chaos: %d commits garbled, %d detected as corrupt, healed sweep all-disk (%d hits, %d misses) — %s\n",
		garbled, hst.Corrupt, wst.Hits, wst.Misses, status)
	return ok
}
