package hybridmem_test

// Facade-level robustness acceptance tests: seeded chaos sweeps
// (failure isolation + reproducibility), prompt cancellation, and the
// exact solver's graceful degradation ladder. The test names carry
// "Chaos" so CI can run the whole harness with -run Chaos.

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	hm "repro"
	"repro/internal/units"
)

// chaosGrid builds the 8-cell mixed grid the chaos tests run: two
// baselines, a minife pipeline plane sharing one profile (cells 1-3),
// a second profiling seed (cell 4), an online cell, and a three-tier
// exact-solver cell (cell 6) whose branch-and-bound search the
// starvation fault can strangle. Profiling keys appear in the order
// minife/21 (ordinal 0), minife/77 (1), ntier/42 (2).
func chaosGrid(t *testing.T) []hm.SweepPoint {
	t.Helper()
	wm, err := hm.WorkloadByName("minife")
	if err != nil {
		t.Fatal(err)
	}
	mm := hm.MachineFor(wm)
	wn := hm.NTierDemoWorkload()
	mn := hm.PerRankMachine(hm.KNLOptane(), wn.Ranks, wn.Threads)
	mc := hm.MemoryConfigFor(mn, 256*units.MB)
	return []hm.SweepPoint{
		hm.BaselinePoint("ddr", wm, hm.BaselineDDR, hm.ExecuteConfig{Machine: mm, Seed: 21, RefScale: 0.25}),
		hm.PipelinePoint("m0/32", wm, hm.PipelineConfig{Machine: mm, Seed: 21, Budget: 32 * units.MB, RefScale: 0.25}),
		hm.PipelinePoint("density/32", wm, hm.PipelineConfig{Machine: mm, Seed: 21, Budget: 32 * units.MB, Strategy: hm.StrategyDensity, RefScale: 0.25}),
		hm.PipelinePoint("density/128", wm, hm.PipelineConfig{Machine: mm, Seed: 21, Budget: 128 * units.MB, Strategy: hm.StrategyDensity, RefScale: 0.25}),
		hm.PipelinePoint("otherseed", wm, hm.PipelineConfig{Machine: mm, Seed: 77, Budget: 128 * units.MB, RefScale: 0.25}),
		hm.OnlinePoint("online", wm, hm.OnlineConfig{Machine: mm, Seed: 21, RefScale: 0.25, Budget: 128 * units.MB}),
		hm.PipelinePoint("exact3", wn, hm.PipelineConfig{Machine: mn, Seed: 42, Memory: &mc, Strategy: hm.StrategyExactNTier, RefScale: 0.5}),
		hm.BaselinePoint("cache", wm, hm.BaselineCacheMode, hm.ExecuteConfig{Machine: mm, Seed: 21, RefScale: 0.25}),
	}
}

// TestChaosSweepIsolatesInjectedFaults is the chaos acceptance test:
// under seed 9 the plan fails the shared minife/21 profile (killing
// cells 1-3), injects an error into cell 4, panics cell 7, and
// starves the exact solver of cell 6 into graceful degradation. The
// sweep must complete with exactly those failures isolated to their
// cells, every untouched cell bit-identical to a fault-free sweep,
// and a second run from the same seed must reproduce all of it.
func TestChaosSweepIsolatesInjectedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos grid runs full pipelines, not -short")
	}
	pts := chaosGrid(t)
	spec := hm.FaultSpec{SetupErrors: 1, CellErrors: 1, CellPanics: 1, SolverNodeBudget: 1}
	const seed = 9

	// Pin the victim plan this test's assertions assume. If the victim
	// hash changes, pick a new seed with the same shape rather than
	// weakening the assertions.
	plan := hm.NewFaultInjector(seed, spec)
	if v := plan.Victims(hm.FaultSweepSetup, 3); !v[0] {
		t.Fatalf("victim plan moved: setup victims = %v, test assumes key ordinal 0 (minife/21)", v)
	}
	if v := plan.Victims(hm.FaultSweepCellError, len(pts)); !v[4] {
		t.Fatalf("victim plan moved: cell-error victims = %v, test assumes cell 4", v)
	}
	if v := plan.Victims(hm.FaultSweepCellPanic, len(pts)); !v[7] {
		t.Fatalf("victim plan moved: cell-panic victims = %v, test assumes cell 7", v)
	}

	clean, err := hm.RunSweep(pts, hm.SweepOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]hm.SweepResult, error) {
		return hm.RunSweep(pts, hm.SweepOptions{Workers: 3, Fault: hm.NewFaultInjector(seed, spec)})
	}
	chaos, chaosErr := run()
	if chaosErr == nil || !errors.Is(chaosErr, hm.ErrFaultInjected) {
		t.Fatalf("aggregate error = %v, want one wrapping ErrFaultInjected", chaosErr)
	}
	if !errors.Is(chaosErr, hm.ErrCellPanic) {
		t.Errorf("aggregate error should surface the recovered panic too: %v", chaosErr)
	}

	failed := map[int]bool{1: true, 2: true, 3: true, 4: true, 7: true}
	for i := range pts {
		if failed[i] {
			if chaos[i].Err == nil {
				t.Errorf("cell %d (%s) should have failed", i, pts[i].Label)
			}
			continue
		}
		if chaos[i].Err != nil {
			t.Errorf("cell %d (%s) failed: %v", i, pts[i].Label, chaos[i].Err)
			continue
		}
		if i == 6 {
			continue // degraded, checked below — legitimately differs
		}
		if !reflect.DeepEqual(chaos[i].Run, clean[i].Run) {
			t.Errorf("surviving cell %d (%s) diverged from the fault-free sweep", i, pts[i].Label)
		}
	}

	// The shared-setup failure hands every sharer the SAME error.
	for _, i := range []int{2, 3} {
		if !errors.Is(chaos[i].Err, hm.ErrFaultInjected) || chaos[i].Err.Error() != chaos[1].Err.Error() {
			t.Errorf("setup sharers diverge: cell %d = %v, cell 1 = %v", i, chaos[i].Err, chaos[1].Err)
		}
	}
	if !errors.Is(chaos[4].Err, hm.ErrFaultInjected) {
		t.Errorf("cell 4 error = %v, want injected", chaos[4].Err)
	}
	var cp *hm.CellPanicError
	if !errors.As(chaos[7].Err, &cp) || cp.Cell != 7 || len(cp.Stack) == 0 {
		t.Errorf("cell 7 error = %v, want a recovered CellPanicError for cell 7 with a stack", chaos[7].Err)
	}

	// Solver starvation: the exact cell completes, marked degraded,
	// its entries byte-identical to the density waterfall's.
	rep := chaos[6].Pipeline.Report
	if rep.Degraded == nil {
		t.Fatal("starved exact cell carries no Degradation marker")
	}
	if rep.Degraded.Reason != "node-limit" || rep.Degraded.Fallback != "density" || rep.Degraded.Nodes <= 0 {
		t.Errorf("Degraded = %+v", rep.Degraded)
	}
	if rep.Degraded.RatioBound <= 0 || rep.Degraded.RatioBound > 1 {
		t.Errorf("RatioBound = %v, want (0, 1]", rep.Degraded.RatioBound)
	}
	wn, mn, mc := pts[6].Workload, pts[6].Pipeline.Machine, *pts[6].Pipeline.Memory
	dens, err := hm.Pipeline(wn, hm.PipelineConfig{Machine: mn, Seed: 42, Memory: &mc, Strategy: hm.StrategyDensity, RefScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	norm := *rep
	norm.Degraded = nil
	norm.Strategy = dens.Report.Strategy
	var a, b bytes.Buffer
	if err := norm.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := dens.Report.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("degraded report is not the density waterfall's:\n--- degraded ---\n%s\n--- density ---\n%s", a.String(), b.String())
	}

	// Reproducibility: same seed, same carnage, same survivors.
	again, err2 := run()
	if (err2 == nil) != (chaosErr == nil) {
		t.Fatalf("second chaos run error = %v", err2)
	}
	for i := range pts {
		if (again[i].Err == nil) != (chaos[i].Err == nil) {
			t.Errorf("cell %d failure not reproducible: first %v, second %v", i, chaos[i].Err, again[i].Err)
			continue
		}
		if again[i].Err == nil && !reflect.DeepEqual(again[i].Run, chaos[i].Run) {
			t.Errorf("cell %d result not reproducible across chaos runs", i)
		}
	}
	for _, i := range []int{1, 4} { // non-panic errors carry deterministic text
		if again[i].Err.Error() != chaos[i].Err.Error() {
			t.Errorf("cell %d error text not reproducible:\n%v\n%v", i, chaos[i].Err, again[i].Err)
		}
	}
}

// TestChaosSweepAllocFaultFailsCell checks the engine-level injection
// path end to end: an armed allocation fault inside a cell's
// production run fails that cell with an ErrFaultInjected-wrapped
// error through the sweep's per-cell error plumbing.
func TestChaosSweepAllocFaultFailsCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full pipeline cell, not -short")
	}
	w, err := hm.WorkloadByName("minife")
	if err != nil {
		t.Fatal(err)
	}
	m := hm.MachineFor(w)
	pts := []hm.SweepPoint{
		hm.PipelinePoint("victim", w, hm.PipelineConfig{Machine: m, Seed: 21, Budget: 32 * units.MB, RefScale: 0.25}),
	}
	fault := hm.NewFaultInjector(1, hm.FaultSpec{AllocFails: 1, AllocFailEvery: 1})
	res, err := hm.RunSweep(pts, hm.SweepOptions{Workers: 1, Fault: fault})
	if !errors.Is(err, hm.ErrFaultInjected) {
		t.Fatalf("err = %v, want injected allocation failure", err)
	}
	if !errors.Is(res[0].Err, hm.ErrFaultInjected) {
		t.Errorf("cell Err = %v", res[0].Err)
	}
	if n := fault.Counts()[hm.FaultAllocFail]; n == 0 {
		t.Error("fired tally records no allocation faults")
	}
}

// TestChaosSweepCanceledContext checks prompt, typed cancellation: a
// sweep under an already-canceled context starts no cells, fails each
// with an ErrCanceled-wrapped error keeping the context cause, and
// returns labeled results immediately.
func TestChaosSweepCanceledContext(t *testing.T) {
	w, err := hm.WorkloadByName("minife")
	if err != nil {
		t.Fatal(err)
	}
	m := hm.MachineFor(w)
	pts := []hm.SweepPoint{
		hm.BaselinePoint("ddr", w, hm.BaselineDDR, hm.ExecuteConfig{Machine: m, Seed: 21, RefScale: 0.25}),
		hm.PipelinePoint("m0", w, hm.PipelineConfig{Machine: m, Seed: 21, Budget: 32 * units.MB, RefScale: 0.25}),
		hm.OnlinePoint("online", w, hm.OnlineConfig{Machine: m, Seed: 21, RefScale: 0.25, Budget: 32 * units.MB}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := hm.RunSweepCtx(ctx, pts, hm.SweepOptions{Workers: 2})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("canceled sweep took %v, want a prompt return", elapsed)
	}
	if !errors.Is(err, hm.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled keeping context.Canceled", err)
	}
	for i, r := range res {
		if r.Label != pts[i].Label {
			t.Errorf("result %d label = %q, want %q", i, r.Label, pts[i].Label)
		}
		if !errors.Is(r.Err, hm.ErrCanceled) {
			t.Errorf("cell %d Err = %v, want ErrCanceled", i, r.Err)
		}
		if r.Run != nil {
			t.Errorf("cell %d has a run result despite never starting", i)
		}
	}
}

// TestChaosAdviseDeadlineDegrades checks the degradation ladder at
// the advise layer: an expired deadline makes the non-strict exact
// solver answer with the density waterfall plus a "deadline"
// Degradation marker — byte-identical to density up to the marker —
// while the strict solver and a plainly-canceled context fail with
// typed errors.
func TestChaosAdviseDeadlineDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a workload, not -short")
	}
	w, err := hm.WorkloadByName("minife")
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := hm.Profile(w, hm.ProfileConfig{Machine: hm.MachineFor(w), Seed: 21, RefScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := hm.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Three tiers so the exact strategy runs its branch-and-bound
	// solver (two tiers degenerate to the DP knapsack, which has no
	// deadline to miss).
	mc := hm.NTier(
		hm.TierConfig{Name: "MCDRAM", Capacity: 32 * units.MB, RelativePerf: 4},
		hm.TierConfig{Name: "DDR", Capacity: 512 * units.MB, RelativePerf: 1},
		hm.TierConfig{Name: "NVM", Capacity: 4 * units.GB, RelativePerf: 0.3},
	)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	rep, err := hm.AdviseHierarchy(ctx, prof, mc, hm.StrategyExactNTier, nil)
	if err != nil {
		t.Fatalf("non-strict exact under an expired deadline should degrade, got %v", err)
	}
	if rep.Degraded == nil || rep.Degraded.Reason != "deadline" || rep.Degraded.Fallback != "density" {
		t.Fatalf("Degraded = %+v, want reason deadline, fallback density", rep.Degraded)
	}
	dens, err := hm.AdviseHierarchy(context.Background(), prof, mc, hm.StrategyDensity, nil)
	if err != nil {
		t.Fatal(err)
	}
	norm := *rep
	norm.Degraded = nil
	norm.Strategy = dens.Strategy
	var a, b bytes.Buffer
	if err := norm.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := dens.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("deadline-degraded report is not the density waterfall's:\n--- degraded ---\n%s\n--- density ---\n%s", a.String(), b.String())
	}

	// The marker survives the report exchange format.
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := hm.ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Degraded == nil || *rt.Degraded != *rep.Degraded {
		t.Errorf("Degradation marker lost in round-trip: %+v vs %+v", rt.Degraded, rep.Degraded)
	}

	// Strict refuses to degrade.
	if _, err := hm.AdviseHierarchy(ctx, prof, mc, hm.StrategyExactStrict, nil); !errors.Is(err, hm.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("strict exact error = %v, want ErrCanceled keeping DeadlineExceeded", err)
	}

	// Plain cancellation is a stop request, not a degradation trigger.
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if _, err := hm.AdviseHierarchy(cctx, prof, mc, hm.StrategyExactNTier, nil); !errors.Is(err, hm.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("canceled exact error = %v, want ErrCanceled keeping context.Canceled", err)
	}
}

// TestChaosPipelineCtxCanceled checks that cancellation reaches the
// engine through the pipeline facade with the typed sentinel.
func TestChaosPipelineCtxCanceled(t *testing.T) {
	w, err := hm.WorkloadByName("minife")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = hm.PipelineCtx(ctx, w, hm.PipelineConfig{Machine: hm.MachineFor(w), Seed: 21, Budget: 32 * units.MB, RefScale: 0.25})
	if !errors.Is(err, hm.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled keeping context.Canceled", err)
	}
}
