// Package hybridmem is a reproduction of "Automating the Application
// Data Placement in Hybrid Memory Systems" (Servat et al., IEEE
// CLUSTER 2017) as a self-contained Go library.
//
// It implements the paper's four-stage profile-guided placement
// framework over a deterministic simulation of an Intel Xeon Phi-class
// hybrid memory node (DDR + MCDRAM):
//
//	Stage 1 — Profile:  run the application instrumented (Extrae):
//	                    malloc/free call stacks + PEBS-sampled LLC
//	                    misses -> trace.
//	Stage 2 — Analyze:  reduce the trace to per-object statistics
//	                    (Paramedir): sampled misses + max size.
//	Stage 3 — Advise:   pick the objects to promote for a given fast-
//	                    memory budget (hmem_advisor): Misses(θ) or
//	                    Density greedy knapsacks.
//	Stage 4 — Execute:  re-run the unmodified application with the
//	                    interposition library (auto-hbwmalloc) routing
//	                    the selected allocation sites to MCDRAM.
//
// The package also ships the paper's baselines (DDR, numactl -p 1,
// autohbw, MCDRAM cache mode), the eight Table I workload analogs plus
// STREAM, the Folding analysis of Figure 5, and the ΔFOM/MByte metric
// of Equation 1.
//
// Beyond the paper's offline pipeline, the library implements Section
// V's dynamic-placement future work as an online subsystem (RunOnline,
// OnlinePoint, internal/online): the run is sliced into epochs, an
// in-run PEBS monitor feeds an exponential-decay aggregator, the
// knapsack is re-solved against the live footprint at every boundary,
// and objects migrate between DDR and MCDRAM mid-run when a
// hysteresis gate finds the predicted gain worth the move traffic.
// The "phaseshift" workload is the scenario where this beats every
// one-shot placement. See DESIGN.md for the full system inventory and
// EXPERIMENTS.md for paper-vs-measured results.
package hybridmem

import (
	"context"
	"fmt"
	"io"

	"repro/internal/advisor"
	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/folding"
	"repro/internal/interpose"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/paramedir"
	"repro/internal/predict"
	"repro/internal/stage"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/units"
)

// Re-exported core types. The library's public surface is this root
// package; internal packages are implementation.
type (
	// Workload is a synthetic application: objects, phases, FOM.
	Workload = engine.Workload
	// ObjectSpec declares one data object of a workload.
	ObjectSpec = engine.ObjectSpec
	// Phase is one routine execution within an iteration.
	Phase = engine.Phase
	// Touch is one phase's access work on one object.
	Touch = engine.Touch
	// RunResult summarizes one simulated execution.
	RunResult = engine.Result
	// Machine is the simulated memory-system configuration.
	Machine = mem.Machine
	// Trace is an Extrae-style instrumented-run recording.
	Trace = trace.Trace
	// ObjectProfile is Paramedir's per-object reduction.
	ObjectProfile = paramedir.Profile
	// PlacementReport is hmem_advisor's object selection.
	PlacementReport = advisor.Report
	// Strategy selects objects for the fast-memory knapsack.
	Strategy = advisor.Strategy
	// MemoryConfig is the tier hierarchy the advisor packs against.
	MemoryConfig = advisor.MemoryConfig
	// TierConfig describes one tier of a MemoryConfig.
	TierConfig = advisor.TierConfig
	// TierID identifies a memory tier of a Machine.
	TierID = mem.TierID
	// TierSpec describes one memory tier of a Machine (capacity,
	// latency, bandwidth, NUMA domain, controller group).
	TierSpec = mem.TierSpec
	// InterposeOptions tunes the auto-hbwmalloc library.
	InterposeOptions = interpose.Options
	// Folded is the Figure 5 folded-iteration profile.
	Folded = folding.Folded
	// FlightRecorder is the structured-trace recorder of internal/obs.
	// A nil *FlightRecorder is valid everywhere one is accepted and
	// records nothing at zero cost.
	FlightRecorder = obs.Recorder
	// RunManifest is the run-identification header event every traced
	// run begins with.
	RunManifest = obs.Manifest
	// TraceSummary is the aggregate digest of a JSONL trace.
	TraceSummary = obs.Summary
)

// NewFlightRecorder returns a recorder streaming deterministic JSONL
// events to w. Attach it via the Obs field of ProfileConfig,
// ExecuteConfig, OnlineConfig, PipelineConfig or SweepOptions.
func NewFlightRecorder(w io.Writer) *FlightRecorder { return obs.New(w) }

// SummarizeTrace aggregates a JSONL trace (as written by a
// FlightRecorder) into a TraceSummary digest.
func SummarizeTrace(r io.Reader) (*TraceSummary, error) { return obs.Summarize(r) }

// ConfigFingerprint is the stable short fingerprint the flight
// recorder stamps into manifests — exposed so CLIs can label external
// artifacts consistently with trace contents.
func ConfigFingerprint(v any) string { return obs.Fingerprint(v) }

// Storage classes and access patterns, re-exported for workload
// authors.
const (
	Dynamic = engine.Dynamic
	Static  = engine.Static
	Stack   = engine.Stack

	Sequential   = engine.Sequential
	Strided      = engine.Strided
	GatherRandom = engine.GatherRandom
	PointerChase = engine.PointerChase

	LifetimeProgram   = engine.LifetimeProgram
	LifetimeIteration = engine.LifetimeIteration
)

// Byte units re-exported for configuration convenience.
const (
	KB = units.KB
	MB = units.MB
	GB = units.GB
)

// Placement strategies of hmem_advisor.
var (
	// StrategyDensity promotes by misses/byte profit density.
	StrategyDensity Strategy = advisor.DensityStrategy{}
	// StrategyExactDP is the impractical exact 0/1 knapsack reference.
	StrategyExactDP Strategy = advisor.ExactDP{}
	// StrategyExactNTier is the exact N-tier placement solver: branch
	// and bound over object×tier assignments with per-tier capacity
	// constraints and the topology-aware effective-perf objective,
	// pruned by an LP-relaxation bound. On the two-tier degenerate
	// configuration it falls back to the ExactDP knapsack (reports are
	// bit-identical up to the strategy label). It is the optimality
	// oracle of the verification harness — pair it with
	// PlacementObjective to measure a greedy strategy's gap.
	StrategyExactNTier Strategy = advisor.ExactNTier{}
	// StrategyFCFS packs in input order regardless of cost — the
	// software analog of numactl -p 1, for baselines and tests.
	StrategyFCFS Strategy = advisor.FCFSStrategy{}
)

// StrategyGrammar lists every name StrategyByName accepts, for the
// command-line surfaces' help strings.
const StrategyGrammar = advisor.StrategyGrammar

// StrategyByName resolves a command-line strategy name — the one
// grammar (StrategyGrammar) cmd/hmemadvisor, cmd/experiments and
// cmd/advisord share. "exact-strict" is the exact solver with graceful
// degradation disabled: a node-limit or deadline overrun is an error
// instead of a fallback to the density waterfall (see
// PlacementReport.Degraded).
// Unknown names and malformed misses thresholds are errors; in
// particular "misses5" is rejected rather than silently parsed as a
// 0% threshold, and a threshold must be a finite, non-negative
// percentage.
func StrategyByName(name string) (Strategy, error) {
	// The grammar lives in internal/advisor so the advisory daemon's
	// wire protocol resolves names identically to the CLIs.
	return advisor.StrategyByName(name)
}

// PlacementObjective prices a report against a memory configuration:
// Σ misses × effective performance of the tier each profiled object
// landed on (no entry = the default tier). This is the quantity
// StrategyExactNTier maximizes, so greedy/exact objective ratios
// measure how much performance a heuristic leaves on the table.
func PlacementObjective(prof *ObjectProfile, rep *PlacementReport, mc MemoryConfig) float64 {
	return advisor.ReportObjective(advisor.FromProfile(prof), rep, mc)
}

// StrategyMisses promotes by descending LLC misses with a percentage
// threshold (the paper evaluates 0%, 1% and 5%).
func StrategyMisses(thresholdPct float64) Strategy {
	return advisor.MissesStrategy{Threshold: thresholdPct}
}

// Well-known tier IDs of the shipped machine configurations.
const (
	TierDDR    = mem.TierDDR
	TierMCDRAM = mem.TierMCDRAM
	TierNVM    = mem.TierNVM
	TierHBM    = mem.TierHBM
	TierCXL    = mem.TierCXL
)

// DefaultKNL returns the reference Xeon Phi 7250-like node.
func DefaultKNL() Machine { return mem.DefaultKNL() }

// KNLOptane returns the three-tier KNL node: DDR + MCDRAM plus an
// Optane-class NVM floor slower than DDR.
func KNLOptane() Machine { return mem.KNLOptane() }

// DualSocketHBM returns the two-domain topology showcase: the rank is
// pinned to socket 0 with plain DDR and an NVM floor, while socket 1
// carries an HBM-class tier that is raw-faster than DDR but slower
// end-to-end once the cross-socket distance is priced in.
func DualSocketHBM() Machine { return mem.DualSocketHBM() }

// WithSharedControllers declares that the named tiers drain through
// one shared memory-controller group, enabling the cross-tier
// contention model of mem.MigrationTimeUnder (e.g. DDR+NVM sharing a
// socket's iMC on Optane nodes, or HBM+DDR sharing the mesh).
func WithSharedControllers(m Machine, controller int, tiers ...TierID) Machine {
	return mem.WithSharedControllers(m, controller, tiers...)
}

// PerRankMachine derives the machine one MPI rank sees on a node
// shared by ranks ranks of threads threads each.
func PerRankMachine(node Machine, ranks, threads int) Machine {
	return mem.PerRank(node, ranks, threads)
}

// Workloads returns the eight Table I application analogs.
func Workloads() []*Workload { return apps.Catalog() }

// WorkloadByName builds one registered workload: a Table I analog
// ("hpcg", "lulesh", "bt", "minife", "cgpop", "snap", "maxw-dgtd",
// "gtc-p") or the phase-shifting online-placement adversary
// ("phaseshift").
func WorkloadByName(name string) (*Workload, error) { return apps.ByName(name) }

// WorkloadNames lists the registered workload names.
func WorkloadNames() []string { return apps.Names() }

// StreamWorkload returns the STREAM Triad kernel of Figure 1.
func StreamWorkload() *Workload { return apps.Stream() }

// NTierDemoWorkload returns the three-tier showcase: a rank whose
// footprint exceeds DDR+MCDRAM and whose hot set exceeds MCDRAM, run
// on PerRankMachine(KNLOptane(), 64, 4). NTierPoints and
// TopologyPoints run it.
func NTierDemoWorkload() *Workload { return apps.NTierDemo() }

// StreamCoreCounts returns Figure 1's core-count sweep.
func StreamCoreCounts() []int { return apps.StreamCoreCounts() }

// MachineFor returns the per-rank machine a workload runs on.
func MachineFor(w *Workload) Machine { return apps.MachineFor(w) }

// BudgetsFor returns the Figure 4 MCDRAM budget sweep for a workload.
func BudgetsFor(w *Workload) []int64 { return apps.Budgets(w) }

// Figure4Points is the Figure 4 grid for w at access-volume scale
// scale, under the seed EXPERIMENTS.md pins (21): the four baselines
// (DDR, numactl, autohbw, cache mode), then the framework at every
// BudgetsFor(w) budget under each strategy, budget-major. With no
// strategies it sweeps the paper's four: density and misses at 0, 1
// and 5 %. Pipeline cells are labelled "<strategy> @<budget>" and all
// share one profiling configuration, so RunSweep profiles w once.
func Figure4Points(w *Workload, scale float64, strategies ...Strategy) []SweepPoint {
	if len(strategies) == 0 {
		strategies = []Strategy{StrategyDensity, StrategyMisses(0), StrategyMisses(1), StrategyMisses(5)}
	}
	m := MachineFor(w)
	cfg := ExecuteConfig{Machine: m, Seed: 21, RefScale: scale}
	pts := []SweepPoint{
		BaselinePoint("DDR", w, BaselineDDR, cfg),
		BaselinePoint("MCDRAM*(numactl)", w, BaselineNumactl, cfg),
		BaselinePoint("autohbw/1m", w, BaselineAutoHBW, cfg),
		BaselinePoint("cache", w, BaselineCacheMode, cfg),
	}
	for _, budget := range BudgetsFor(w) {
		for _, s := range strategies {
			pts = append(pts, PipelinePoint(fmt.Sprintf("%s @%s", s.Name(), units.HumanBytes(budget)), w,
				PipelineConfig{Machine: m, Seed: 21, Budget: budget, Strategy: s, RefScale: scale}))
		}
	}
	return pts
}

// NTierPoints is the three-tier grid for NTierDemoWorkload on its
// per-rank KNLOptane machine (DDR 1.5 GB, MCDRAM 256 MB, NVM 8 GB) at
// access-volume scale scale, seed 42: the placement-oblivious DDR
// baseline, then per MCDRAM budget of 64, 128 and 256 MB the paper's
// two-tier pipeline followed by the N-tier waterfall over
// MemoryConfigFor the machine at that budget, and last the online
// placer at 256 MB. Cell 2i+1 is the two-tier cell and cell 2i+2 the
// waterfall cell of the i-th budget. A non-nil waterfall strategy
// packs the waterfall cells, labelled "waterfall/<name> @<budget>"
// instead of "waterfall @<budget>". Every pipeline cell shares one
// profiling configuration, so RunSweep profiles the workload once.
func NTierPoints(scale float64, waterfall Strategy) []SweepPoint {
	w := NTierDemoWorkload()
	m := PerRankMachine(KNLOptane(), w.Ranks, w.Threads)
	label := "waterfall"
	if waterfall != nil {
		label += "/" + waterfall.Name()
	}
	pts := []SweepPoint{BaselinePoint("ddr (oblivious)", w, BaselineDDR, ExecuteConfig{Machine: m, Seed: 42, RefScale: scale})}
	for _, budget := range []int64{64 * units.MB, 128 * units.MB, 256 * units.MB} {
		mc := MemoryConfigFor(m, budget)
		pts = append(pts,
			PipelinePoint(fmt.Sprintf("two-tier @%s", units.HumanBytes(budget)), w,
				PipelineConfig{Machine: m, Seed: 42, Budget: budget, RefScale: scale}),
			PipelinePoint(fmt.Sprintf("%s @%s", label, units.HumanBytes(budget)), w,
				PipelineConfig{Machine: m, Seed: 42, Memory: &mc, RefScale: scale, Strategy: waterfall}),
		)
	}
	return append(pts, OnlinePoint("online @256 MB", w,
		OnlineConfig{Machine: m, Seed: 42, RefScale: scale, Budget: 256 * units.MB}))
}

// TopologyPoints is the topology grid for NTierDemoWorkload on its
// per-rank DualSocketHBM machine (near DDR and NVM on socket 0, where
// the rank is pinned; HBM on socket 1) at access-volume scale scale,
// seed 42: cell 0 is the placement-oblivious DDR baseline, cell 1 the
// topology-blind waterfall (the machine's tiers with their distance
// stripped, so it packs by raw RelativePerf and ships the hot set to
// remote HBM) and cell 2 the topology-aware waterfall
// (MemoryConfigFor the machine, which keeps the hot set near). The
// two pipeline cells differ only in the advise stage and share one
// profiling configuration.
func TopologyPoints(scale float64) []SweepPoint {
	w := NTierDemoWorkload()
	m := PerRankMachine(DualSocketHBM(), w.Ranks, w.Threads)
	aware := MemoryConfigFor(m, 0)
	blind := aware
	blind.Tiers = append([]TierConfig{}, aware.Tiers...)
	for i := range blind.Tiers {
		blind.Tiers[i].Distance = 0
	}
	return []SweepPoint{
		BaselinePoint("ddr (oblivious)", w, BaselineDDR, ExecuteConfig{Machine: m, Seed: 42, RefScale: scale}),
		PipelinePoint("topology-blind (hot -> remote HBM)", w, PipelineConfig{Machine: m, Seed: 42, Memory: &blind, RefScale: scale}),
		PipelinePoint("topology-aware (hot stays near)", w, PipelineConfig{Machine: m, Seed: 42, Memory: &aware, RefScale: scale}),
	}
}

// DeltaFOMPerMB is Equation 1: fast-memory efficiency of a result.
func DeltaFOMPerMB(fom, fomDDR float64, memBytes int64) float64 {
	return metrics.DeltaFOMPerMB(fom, fomDDR, memBytes)
}

// ImprovementPct is the percentage FOM improvement over a baseline.
func ImprovementPct(fom, base float64) float64 { return metrics.ImprovementPct(fom, base) }

// Fold runs the Folding analysis (Figure 5) over a monitored run's
// trace.
func Fold(tr *Trace, bins int, clockHz float64) (*Folded, error) {
	return folding.Fold(tr, bins, clockHz)
}

// ReadTrace decodes a trace written with Trace.Write — the file format
// the cmd/tracer and cmd/paramedir tools exchange.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// ReadReport decodes an advisor report written with
// PlacementReport.Write.
func ReadReport(r io.Reader) (*PlacementReport, error) { return advisor.ReadReport(r) }

// ReadProfileCSV decodes Paramedir CSV output.
func ReadProfileCSV(r io.Reader) (*ObjectProfile, error) { return paramedir.ReadCSV(r) }

// AccessPattern classifies an object's sampled access regularity.
type AccessPattern = paramedir.AccessPattern

// Pattern classes, re-exported from the analyzer.
const (
	PatternUnknown   = paramedir.PatternUnknown
	PatternRegular   = paramedir.PatternRegular
	PatternIrregular = paramedir.PatternIrregular
)

// ClassifyPatterns derives per-object access-pattern classes from a
// profiling trace (Section V: regular vs irregular regions feed
// latency-aware placement).
func ClassifyPatterns(prof *ObjectProfile, tr *Trace) map[string]AccessPattern {
	return paramedir.ClassifyPatterns(prof, tr)
}

// StrategyPatternAware weights profit density by access regularity:
// streams get MCDRAM's bandwidth; latency-bound irregular objects are
// discounted (MCDRAM's idle latency is worse than DDR's).
func StrategyPatternAware(patterns map[string]AccessPattern) Strategy {
	return advisor.PatternAwareStrategy{Patterns: patterns}
}

// AdvisePartitioned packs like AdviseHierarchy but, when an object
// does not fit the fastest tier's remaining budget whole, places only
// its hot range (plain waterfall below that tier); auto-hbwmalloc then
// binds just those pages to fast memory (simulated mbind) — the
// paper's final future-work item. No production caller: it is the only
// producer of the partition entries that auto-hbwmalloc honours from
// report files, kept so that path stays reachable from the library.
func AdvisePartitioned(prof *ObjectProfile, tr *Trace, mc MemoryConfig, strat Strategy) (*PlacementReport, error) {
	if prof == nil {
		return nil, fmt.Errorf("hybridmem: nil profile")
	}
	if tr == nil {
		return nil, fmt.Errorf("hybridmem: nil trace")
	}
	hot := paramedir.AnalyzeHotRanges(prof, tr)
	return advisor.AdvisePartitioned(prof.App, advisor.FromProfile(prof), hot, mc, strat)
}

// Prediction is the outcome of a trace-replay performance prediction.
type Prediction = predict.Prediction

// PredictPlacement replays a profiling trace against a placement
// report and predicts the speedup over the DDR run WITHOUT executing
// stage 4 — the trace-replay simulator the paper's Section V proposes
// for screening candidate placements.
func PredictPlacement(tr *Trace, rep *PlacementReport, m Machine) (*Prediction, error) {
	return predict.Replay(tr, rep, m)
}

// RankPlacements predicts several candidate reports at once and
// returns their indices ordered best-first plus each prediction.
func RankPlacements(tr *Trace, reports []*PlacementReport, m Machine) ([]int, []*Prediction, error) {
	return predict.RankPlacements(tr, reports, m)
}

// ProfileConfig parameterizes Stage 1.
type ProfileConfig struct {
	Machine Machine
	// Cores used by the run (0 = all machine cores).
	Cores int
	Seed  uint64
	// SamplePeriod is the PEBS decimation (0 = the paper's 37,589).
	SamplePeriod uint64
	// MinAllocSize skips instrumenting small allocations (0 = 4 KB).
	MinAllocSize int64
	// RefScale scales simulated access volume (0 = 1.0).
	RefScale float64
	// Obs, when non-nil, records the run's manifest and epoch events.
	Obs *FlightRecorder
}

// DefaultScaledPeriod is the default PEBS period for the scaled
// simulation. The paper samples 1 out of every 37,589 L2 misses
// (pebs.DefaultPeriod) over runs issuing billions of references; this
// repository's runs are scaled to a few million references, so the
// period is scaled by the same factor to preserve the paper's
// samples-per-process range (thousands — Table I) and its statistical
// attribution quality. The online subsystem's in-run monitor uses the
// same period (it is an alias of online.DefaultSamplePeriod).
const DefaultScaledPeriod = online.DefaultSamplePeriod

// params is the slice of the configuration that shapes the profiling
// artifact; internal/stage owns its defaults.
func (c ProfileConfig) params() stage.ProfileParams {
	return stage.ProfileParams{
		Machine: c.Machine, Cores: c.Cores, Seed: c.Seed,
		SamplePeriod: c.SamplePeriod, MinAllocSize: c.MinAllocSize,
		RefScale: c.RefScale,
	}
}

// Profile is Stage 1: execute w on the DDR placement with Extrae-style
// instrumentation and PEBS sampling, returning the trace and the
// profiling run's result (whose overhead column feeds Table I).
func Profile(w *Workload, cfg ProfileConfig) (*Trace, *RunResult, error) {
	return profile(w, cfg, baseline.DDR(), "profile")
}

// ProfileWithPolicy runs w monitored while honouring an advisor report
// through auto-hbwmalloc — the run the Figure 5 folding visualizes
// (instrumenting the production placement instead of the DDR one).
func ProfileWithPolicy(w *Workload, cfg ProfileConfig, rep *PlacementReport) (*Trace, *RunResult, error) {
	tag := "profile"
	if rep != nil && rep.Strategy != "" {
		tag = "profile/" + rep.Strategy
	}
	return profile(w, cfg, interpose.Factory(rep, InterposeOptions{}), tag)
}

// profile is the monitored run behind Profile and ProfileWithPolicy,
// placing allocations with makePolicy.
func profile(w *Workload, cfg ProfileConfig, makePolicy engine.PolicyFactory, tag string) (*Trace, *RunResult, error) {
	res, err := stage.Monitor(w, cfg.params(), engine.Config{
		MakePolicy: makePolicy, Tag: tag, Obs: cfg.Obs,
	})
	if err != nil {
		return nil, nil, err
	}
	return res.Trace, res, nil
}

// Analyze is Stage 2: reduce a trace to per-object statistics.
func Analyze(tr *Trace) (*ObjectProfile, error) { return paramedir.Analyze(tr) }

// Advise is Stage 3: select the objects to promote into a fast-memory
// budget using the given strategy. It is the paper-reproduction
// two-tier form of AdviseHierarchy: packing the classic MCDRAM+DDR
// configuration, it produces reports byte-identical to the original
// single-knapsack hmem_advisor.
func Advise(prof *ObjectProfile, budget int64, strat Strategy) (*PlacementReport, error) {
	return AdviseHierarchy(context.Background(), prof, TwoTier(budget), strat, nil)
}

// TwoTier returns the classic MCDRAM+DDR advisor configuration with
// the given fast-tier budget — the memory configuration file of the
// paper's hmem_advisor.
func TwoTier(fastBudget int64) MemoryConfig { return advisor.TwoTier(fastBudget) }

// MemoryConfigFor derives the advisor configuration from a simulated
// machine — every tier with its capacity and relative performance,
// the machine's default tier marked — replacing the fastest tier's
// capacity with fastBudget when positive (the paper's per-rank budget
// sweep).
func MemoryConfigFor(m Machine, fastBudget int64) MemoryConfig {
	return advisor.FromMachine(&m, fastBudget)
}

// AdviseHierarchy is the N-tier Stage 3: waterfall-pack the profiled
// objects over an arbitrary tier hierarchy — fill the fastest tier,
// cascade the overflow down — recording a target tier per object.
// Objects assigned to the default tier get no entry; on machines with
// tiers slower than the default the coldest objects receive explicit
// entries banishing them below it, which is what protects warm data
// from landing on the NVM/CXL floor by allocation-order accident.
//
// StrategyExactNTier polls ctx during the branch-and-bound search; on
// deadline expiry it degrades to the density waterfall (marking the
// report) unless the strategy is StrategyExactStrict, and on plain
// cancellation it returns an ErrCanceled-wrapped error. The greedy
// strategies complete too fast to be worth polling. A non-nil
// recorder receives the waterfall's per-tier packing steps and —
// under StrategyExactNTier — the solver's node/prune counters as
// pack/solver events.
func AdviseHierarchy(ctx context.Context, prof *ObjectProfile, mc MemoryConfig, strat Strategy, rec *FlightRecorder) (*PlacementReport, error) {
	return stage.Advise(ctx, prof, mc, strat, false, rec)
}

// AdviseTimeAware is the liveness-aware variant of AdviseHierarchy
// suggested in Section III: instead of budgeting the sum of every
// selected site's maximum size (the static-address-space assumption
// that misleads the advisor on churny applications like Lulesh), it
// packs each tier against the peak CONCURRENT footprint reconstructed
// from the trace's allocation timeline.
func AdviseTimeAware(prof *ObjectProfile, mc MemoryConfig, strat Strategy) (*PlacementReport, error) {
	return stage.Advise(context.Background(), prof, mc, strat, true, nil)
}

// ExecuteConfig parameterizes Stage 4 and baseline runs.
type ExecuteConfig struct {
	Machine  Machine
	Cores    int
	Seed     uint64
	RefScale float64
	// Obs, when non-nil, records the run's manifest and epoch events.
	Obs *FlightRecorder

	// pool donates reusable simulator state across runs (sweep-only:
	// RunSweep keeps one pool per worker). Pooled runs are
	// bit-identical to unpooled ones, so the seam is not part of the
	// public configuration surface.
	pool *engine.Pool
	// ctx, when non-nil, cancels the run at iteration/phase boundaries
	// (set by the sweep engine from RunSweepCtx's context).
	ctx context.Context
	// fault, when non-nil, arms the seeded chaos hooks inside the run
	// (set by RunSweep from SweepOptions.Fault; nil costs nothing).
	fault *faultinject.Injector
}

// Execute is Stage 4: re-run w with auto-hbwmalloc honouring the
// advisor report.
func Execute(w *Workload, rep *PlacementReport, opts InterposeOptions, cfg ExecuteConfig) (*RunResult, error) {
	tag := ""
	if rep != nil {
		tag = rep.Strategy
	}
	return engine.Run(w, engine.Config{
		Machine:    cfg.Machine,
		Cores:      cfg.Cores,
		Seed:       cfg.Seed,
		RefScale:   cfg.RefScale,
		MakePolicy: interpose.Factory(rep, opts),
		Obs:        cfg.Obs,
		Ctx:        cfg.ctx,
		Fault:      cfg.fault,
		Tag:        tag,
		Pool:       cfg.pool,
	})
}

// Baseline identifies one of the paper's comparison placements.
type Baseline uint8

// The four Figure 4 reference placements.
const (
	// BaselineDDR places everything in regular memory.
	BaselineDDR Baseline = iota
	// BaselineNumactl is numactl -p 1: first-touch into MCDRAM with
	// DDR fallback, statics and stack included.
	BaselineNumactl
	// BaselineAutoHBW is the autohbw library with a 1 MB threshold.
	BaselineAutoHBW
	// BaselineCacheMode configures MCDRAM as a memory-side cache.
	BaselineCacheMode
)

// String implements fmt.Stringer.
func (b Baseline) String() string {
	switch b {
	case BaselineDDR:
		return "ddr"
	case BaselineNumactl:
		return "numactl"
	case BaselineAutoHBW:
		return "autohbw/1m"
	case BaselineCacheMode:
		return "cache"
	default:
		return fmt.Sprintf("baseline(%d)", uint8(b))
	}
}

// RunBaseline executes w under one of the comparison placements.
func RunBaseline(w *Workload, b Baseline, cfg ExecuteConfig) (*RunResult, error) {
	ec := engine.Config{
		Machine:  cfg.Machine,
		Cores:    cfg.Cores,
		Seed:     cfg.Seed,
		RefScale: cfg.RefScale,
		Obs:      cfg.Obs,
		Ctx:      cfg.ctx,
		Fault:    cfg.fault,
		Tag:      b.String(),
		Pool:     cfg.pool,
	}
	switch b {
	case BaselineDDR:
		ec.MakePolicy = baseline.DDR()
	case BaselineNumactl:
		ec.MakePolicy = baseline.Numactl()
		ec.StaticsInFast = true
	case BaselineAutoHBW:
		ec.MakePolicy = baseline.AutoHBW(1 * units.MB)
	case BaselineCacheMode:
		ec.Machine = mem.WithCacheMode(cfg.Machine)
		ec.MakePolicy = baseline.DDR()
	default:
		return nil, fmt.Errorf("hybridmem: unknown baseline %v", b)
	}
	return engine.Run(w, ec)
}

// OnlineConfig parameterizes a run under the online adaptive placer —
// the dynamic data placement of Section V's future work: no profiling
// stage, no advisor report; the run monitors itself, re-solves the
// knapsack at epoch boundaries, and migrates objects between tiers
// when the predicted gain beats the move cost.
type OnlineConfig struct {
	Machine  Machine
	Cores    int
	Seed     uint64
	RefScale float64
	// Budget is the fast-memory budget the placer may bind (0 = the
	// machine's whole fastest tier).
	Budget int64
	// Budgets optionally caps the bytes bound per additional
	// non-default tier (e.g. an NVM floor); missing tiers default to
	// their capacity.
	Budgets map[TierID]int64
	// EveryIterations / EveryRefs set the epoch length (all epoch
	// bounds 0 = every iteration).
	EveryIterations int
	EveryRefs       int64
	// EveryFloorBytes additionally closes an epoch once tiers slower
	// than the default served that many bytes — rescue migrations
	// fire exactly when the NVM/CXL floor starts to hurt.
	EveryFloorBytes int64
	// SamplePeriod is the in-run monitor's PEBS decimation
	// (0 = DefaultScaledPeriod).
	SamplePeriod uint64
	// Strategy packs the per-epoch knapsack (nil = StrategyDensity).
	Strategy Strategy
	// Obs, when non-nil, records the run's manifest and epoch events
	// plus the placer's per-epoch tier-usage snapshots and
	// migration-gate ACCEPT/REJECT decisions.
	Obs *FlightRecorder

	// pool donates reusable simulator state across runs (sweep-only;
	// see ExecuteConfig.pool).
	pool *engine.Pool
	// ctx / fault: cancellation and chaos seams; see ExecuteConfig.
	ctx   context.Context
	fault *faultinject.Injector
}

// RunOnline executes w under the online adaptive placer. The result's
// Epochs/Migrations/MigratedBytes/MigrationCycles fields report the
// re-placement activity.
func RunOnline(w *Workload, cfg OnlineConfig) (*RunResult, error) {
	budget := cfg.Budget
	if budget <= 0 {
		if len(cfg.Machine.Tiers) == 0 {
			return nil, fmt.Errorf("hybridmem: machine has no memory tiers")
		}
		// The placer promotes into the EFFECTIVELY-fastest tier (the
		// near hierarchy's head), so that is the capacity the default
		// budget must match — on a multi-domain machine the raw-fastest
		// tier can be a remote one the placer never binds.
		budget = cfg.Machine.NearFastestTier().Capacity
	}
	// The horizon cap is only knowable for purely iteration-counted
	// epochs; a refs or floor-volume trigger can close epochs at phase
	// granularity, so its total is workload-dependent and stays
	// unbounded.
	totalEpochs := 0
	if cfg.EveryRefs <= 0 && cfg.EveryFloorBytes <= 0 {
		if cfg.EveryIterations > 0 {
			totalEpochs = w.Iterations / cfg.EveryIterations
		} else {
			totalEpochs = w.Iterations
		}
	}
	tag := "online/density"
	if cfg.Strategy != nil {
		tag = "online/" + cfg.Strategy.Name()
	}
	return engine.Run(w, engine.Config{
		Machine: cfg.Machine, Cores: cfg.Cores, Seed: cfg.Seed,
		RefScale: cfg.RefScale,
		Obs:      cfg.Obs,
		Ctx:      cfg.ctx,
		Fault:    cfg.fault,
		Tag:      tag,
		Pool:     cfg.pool,
		MakePolicy: online.Factory(online.Options{
			Machine: cfg.Machine, Cores: cfg.Cores, Budget: budget,
			Budgets:         cfg.Budgets,
			EveryIterations: cfg.EveryIterations, EveryRefs: cfg.EveryRefs,
			EveryFloorBytes: cfg.EveryFloorBytes,
			SamplePeriod:    cfg.SamplePeriod,
			TotalEpochs:     totalEpochs, Strategy: cfg.Strategy,
			Obs: cfg.Obs,
		}),
	})
}

// PipelineConfig drives all four stages end to end.
type PipelineConfig struct {
	Machine      Machine
	Cores        int
	Seed         uint64
	SamplePeriod uint64
	MinAllocSize int64
	RefScale     float64
	// Budget is the fast-memory budget per rank.
	Budget int64
	// Memory, when non-nil, makes the advise stage waterfall-pack this
	// hierarchy (AdviseHierarchy) instead of the two-tier
	// TwoTier(Budget) configuration — the N-tier pipeline. Budget is
	// ignored when Memory is set.
	Memory *MemoryConfig
	// Strategy is the hmem_advisor packing strategy.
	Strategy Strategy
	// TimeAware selects with AdviseTimeAware (peak-concurrent budget)
	// instead of the stock whole-run-liveness packing.
	TimeAware bool
	// Interpose tunes the run-time library.
	Interpose InterposeOptions
	// Obs, when non-nil, records every stage: the profiling and
	// production runs' manifests and epoch events plus the advisor's
	// pack/solver events. RunSweep replaces it per cell with a buffered
	// recorder (and skips the shared profiling run's events) so parallel
	// sweep traces stay deterministic.
	Obs *FlightRecorder

	// pool donates reusable simulator state to the execute stage
	// (sweep-only; see ExecuteConfig.pool). The profiling stage never
	// pools: its artifact is shared across cells and its owner is
	// scheduling-dependent.
	pool *engine.Pool
	// fault arms the chaos hooks of the execute stage only — the
	// profiling artifact is shared across sweep cells, so injecting
	// there is SweepSetup's job, not the engine hooks'.
	fault *faultinject.Injector
}

// PipelineResult carries every stage's artifact.
type PipelineResult struct {
	Trace        *Trace
	ProfilingRun *RunResult
	Profile      *ObjectProfile
	Report       *PlacementReport
	Run          *RunResult
}

// Pipeline executes the complete framework: profile on DDR, analyze,
// advise for the budget, and re-run under auto-hbwmalloc.
//
// When several pipeline runs share a workload and machine and differ
// only in budget or strategy — the shape of every sweep in the
// evaluation — use RunSweep instead: it computes the Profile/Analyze
// prefix once per distinct profiling configuration and fans the
// advise+execute cells across a worker pool, with results identical to
// calling Pipeline in a loop.
func Pipeline(w *Workload, cfg PipelineConfig) (*PipelineResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	art, err := stage.Profile(w, cfg.profileParams(), engine.Config{Obs: cfg.Obs})
	if err != nil {
		return nil, fmt.Errorf("hybridmem: %w", err)
	}
	return adviseAndExecute(context.Background(), w, cfg, art.Trace, art.Run, art.Profile, nil)
}

func (cfg PipelineConfig) withDefaults() PipelineConfig {
	if cfg.Strategy == nil {
		cfg.Strategy = StrategyMisses(0)
	}
	return cfg
}

func (cfg *PipelineConfig) validate() error {
	if cfg.Budget <= 0 && cfg.Memory == nil {
		return fmt.Errorf("hybridmem: Pipeline needs a positive Budget or a Memory hierarchy")
	}
	return nil
}

// profileParams is the Stage 1+2 slice of the pipeline configuration —
// exactly the fields the sweep engine memoizes profiling artifacts by.
func (cfg *PipelineConfig) profileParams() stage.ProfileParams {
	return stage.ProfileParams{
		Machine: cfg.Machine, Cores: cfg.Cores, Seed: cfg.Seed,
		SamplePeriod: cfg.SamplePeriod, MinAllocSize: cfg.MinAllocSize,
		RefScale: cfg.RefScale,
	}
}

// adviseAndExecute is the Stage 3+4 tail of a pipeline run, shared by
// Pipeline and the sweep engine so a memoized-profile sweep cannot
// drift from the serial path. ctx cancels both stages: the exact
// solver polls it every ~64k branch-and-bound nodes and the production
// run at iteration/phase boundaries.
//
// A non-nil runs memo shares the production run between calls with
// equal executeKey, so sweep cells whose placements coincide simulate
// it once. Traced and fault-scoped runs are never shared: a shared
// run's events would land in whichever sharer's recorder claimed the
// key, and chaos victims are chosen per cell.
func adviseAndExecute(ctx context.Context, w *Workload, cfg PipelineConfig, tr *Trace, profRun *RunResult, prof *ObjectProfile, runs *sweep.Memo[*RunResult]) (*PipelineResult, error) {
	strat := cfg.Strategy
	// Chaos seam: solver starvation clamps the exact solver's node
	// budget so it hits its limit and exercises the degradation ladder.
	// Consulted only for exact cells — the budget is meaningless to the
	// greedy strategies and the consult itself is tallied.
	if e, ok := strat.(advisor.ExactNTier); ok {
		if b := cfg.fault.SolverNodeBudget(); b > 0 && (e.MaxNodes == 0 || b < e.MaxNodes) {
			e.MaxNodes = b
			strat = e
		}
	}
	mc := TwoTier(cfg.Budget)
	if cfg.Memory != nil {
		mc = *cfg.Memory
	}
	rep, err := stage.Advise(ctx, prof, mc, strat, cfg.TimeAware, cfg.Obs)
	if err != nil {
		return nil, fmt.Errorf("hybridmem: advise stage: %w", err)
	}
	// The production run uses a different seed half: same program,
	// different ASLR layout — translation must bridge it.
	execute := func() (*RunResult, error) {
		return Execute(w, rep, cfg.Interpose, ExecuteConfig{
			Machine: cfg.Machine, Cores: cfg.Cores, Seed: cfg.Seed + 0x9e37,
			RefScale: cfg.RefScale, Obs: cfg.Obs, pool: cfg.pool,
			ctx: ctx, fault: cfg.fault,
		})
	}
	var res *RunResult
	if runs != nil && cfg.Obs == nil && cfg.fault == nil {
		res, err = runs.Do(executeKey(w, &cfg, rep), execute)
	} else {
		res, err = execute()
	}
	if err != nil {
		return nil, fmt.Errorf("hybridmem: execute stage: %w", err)
	}
	return &PipelineResult{
		Trace: tr, ProfilingRun: profRun, Profile: prof, Report: rep, Run: res,
	}, nil
}
