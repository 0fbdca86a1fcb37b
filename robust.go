package hybridmem

// The hardened execution surface: cancellation-aware entry points,
// the typed failure vocabulary of the sweep engine and the exact
// solver, and the seeded fault-injection harness for chaos testing.
//
// Design rules, in force everywhere below:
//
//   - The context-free run entry points (Profile, Execute,
//     RunBaseline, RunOnline, Pipeline, RunSweep) remain the canonical
//     API and are byte-identical to their pre-hardening behavior; each
//     …Ctx variant with a context.Background() is exactly its
//     context-free twin. The advisor takes its context directly:
//     AdviseHierarchy's first argument.
//   - Cancellation is polled at simulation boundaries only —
//     iteration/phase boundaries in the engine, every ~64k nodes in
//     the exact solver — never inside the memory-access hot loop, so
//     arming a context costs nothing measurable.
//   - All injected faults are planned from a seed, not rolled per
//     call: the same seed hurts the same cells with the same faults
//     regardless of worker count or scheduling.

import (
	"context"

	"repro/internal/advisor"
	"repro/internal/faultinject"
	"repro/internal/runerr"
	"repro/internal/sweep"
)

// Typed failure sentinels of the hardened execution layer, matched
// with errors.Is.
var (
	// ErrCanceled wraps every error caused by context cancellation or
	// deadline expiry; the context's own cause (context.Canceled or
	// context.DeadlineExceeded) stays reachable through the chain.
	ErrCanceled = runerr.ErrCanceled
	// ErrCellPanic wraps every recovered sweep-cell (or shared-setup)
	// panic; errors.As against *CellPanicError recovers the panic
	// value and stack.
	ErrCellPanic = sweep.ErrCellPanic
	// ErrNodeLimit is the exact solver's node-budget overrun. Callers
	// only see it under StrategyExactStrict — the non-strict solver
	// degrades to the density waterfall instead (see
	// PlacementReport.Degraded).
	ErrNodeLimit = advisor.ErrNodeLimit
	// ErrFaultInjected wraps every error the chaos harness fabricates,
	// so injected failures are distinguishable from organic ones.
	ErrFaultInjected = faultinject.ErrInjected
)

// CellPanicError captures one recovered sweep panic: the cell index
// (-1 for a shared-setup panic), the panic value and the stack at the
// recovery point. It wraps ErrCellPanic.
type CellPanicError = sweep.CellPanic

// Degradation is the machine-readable marker a gracefully degraded
// placement report carries (PlacementReport.Degraded): why the exact
// solve stopped, which strategy answered instead, how many nodes were
// explored, and a lower bound on the fallback's optimality ratio.
type Degradation = advisor.Degradation

// StrategyExactStrict is StrategyExactNTier with graceful degradation
// disabled: a node-limit or deadline overrun fails the advise stage
// (ErrNodeLimit / ErrCanceled) instead of falling back to the density
// waterfall. Use it where an exact answer must be exact or absent —
// optimality-gap measurement, oracle tests.
var StrategyExactStrict Strategy = advisor.ExactNTier{Strict: true}

// FaultInjector is the seeded chaos plan of internal/faultinject. A
// nil *FaultInjector is valid everywhere one is accepted and injects
// nothing at zero cost — the production idiom is to leave it nil.
type FaultInjector = faultinject.Injector

// FaultSpec declares how much of each fault a FaultInjector plans;
// see NewFaultInjector.
type FaultSpec = faultinject.Spec

// FaultPoint names one injection point of the chaos harness — the
// keys of FaultInjector.Counts.
type FaultPoint = faultinject.Point

// The injection points of the execution layer.
const (
	// FaultSweepSetup fails the shared Profile+Analyze setup of victim
	// profiling keys, taking down every cell that shares them.
	FaultSweepSetup = faultinject.SweepSetup
	// FaultSweepCellError makes victim sweep cells return an injected
	// error.
	FaultSweepCellError = faultinject.SweepCellError
	// FaultSweepCellPanic makes victim sweep cells panic (recovered
	// and isolated by the sweep engine).
	FaultSweepCellPanic = faultinject.SweepCellPanic
	// FaultAllocFail fails every Nth allocation inside victim cells'
	// engine runs.
	FaultAllocFail = faultinject.AllocFail
	// FaultEpochDelay stalls victim cells' simulated clock at epoch
	// boundaries.
	FaultEpochDelay = faultinject.EpochDelay
	// FaultSolverStarve clamps the exact solver's node budget so it
	// exercises the degradation ladder.
	FaultSolverStarve = faultinject.SolverStarve
	// FaultCacheCorrupt garbles every Nth artifact-cache write, modeling
	// torn writes and bit rot the cache's checksums must catch.
	FaultCacheCorrupt = faultinject.CacheCorrupt
	// FaultClientDisconnect severs victim advisory clients' connections
	// mid-conversation; the daemon must shrug and other clients must be
	// unaffected.
	FaultClientDisconnect = faultinject.ClientDisconnect
)

// NewFaultInjector builds the deterministic chaos plan for a seed:
// victim cells are picked by seeded hash rank over the sweep's cell
// and profiling-key domains, so two sweeps with the same seed, spec
// and shape suffer identical faults regardless of worker count. Hand
// it to SweepOptions.Fault.
func NewFaultInjector(seed uint64, spec FaultSpec) *FaultInjector {
	return faultinject.New(seed, spec)
}

// ProfileCtx is Profile under a context: the run polls ctx at
// iteration/phase boundaries and returns an ErrCanceled-wrapped error
// promptly once it is done.
func ProfileCtx(ctx context.Context, w *Workload, cfg ProfileConfig) (*Trace, *RunResult, error) {
	cfg.ctx = ctx
	return Profile(w, cfg)
}

// ExecuteCtx is Execute under a context; see ProfileCtx.
func ExecuteCtx(ctx context.Context, w *Workload, rep *PlacementReport, opts InterposeOptions, cfg ExecuteConfig) (*RunResult, error) {
	cfg.ctx = ctx
	return Execute(w, rep, opts, cfg)
}

// RunBaselineCtx is RunBaseline under a context; see ProfileCtx.
func RunBaselineCtx(ctx context.Context, w *Workload, b Baseline, cfg ExecuteConfig) (*RunResult, error) {
	cfg.ctx = ctx
	return RunBaseline(w, b, cfg)
}

// RunOnlineCtx is RunOnline under a context; see ProfileCtx.
func RunOnlineCtx(ctx context.Context, w *Workload, cfg OnlineConfig) (*RunResult, error) {
	cfg.ctx = ctx
	return RunOnline(w, cfg)
}

// PipelineCtx is Pipeline under a context: every stage honours it —
// the profiling and production runs at iteration/phase boundaries,
// the exact solver every ~64k branch-and-bound nodes. A deadline that
// expires inside a non-strict exact solve does not fail the pipeline:
// the advise stage degrades to the density waterfall and the report
// carries a Degradation marker.
func PipelineCtx(ctx context.Context, w *Workload, cfg PipelineConfig) (*PipelineResult, error) {
	cfg.ctx = ctx
	return Pipeline(w, cfg)
}
