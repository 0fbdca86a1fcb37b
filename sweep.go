package hybridmem

// The sweep engine: profile-once/advise-many over arbitrary
// (workload × machine × budget × strategy) grids.
//
// The paper's evaluation is sweep-shaped — Figure 4 is an (application
// × budget × strategy) grid of full pipeline runs, the N-tier and
// topology studies sweep budgets and machine shapes — and a naive loop
// re-profiles the workload at every grid cell even though the trace
// depends only on the profiling configuration, not on what the advisor
// later does with it. RunSweep splits every pipeline cell at exactly
// that boundary: Profile+Analyze artifacts are memoized per profiling
// key and the advise+execute tails (plus baseline and online cells,
// which have no profile stage) fan out across a bounded worker pool.
// Cells whose advise stage lands on the same placement also share one
// production run (executeKey). Because every simulated run is a pure
// function of its configuration, the results are bit-identical to the
// serial loop, regardless of worker count — pinned by
// TestSweepMatchesSerialLoop.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/stage"
	"repro/internal/sweep"
)

// BaselineSpec names one baseline execution inside a sweep.
type BaselineSpec struct {
	Baseline Baseline
	Config   ExecuteConfig
}

// SweepPoint is one cell of a sweep grid: a workload plus exactly one
// way of running it — a full four-stage pipeline, a baseline
// placement, or the online adaptive placer.
type SweepPoint struct {
	// Label tags the cell in results and trace cell events.
	Label    string
	Workload *Workload

	// Exactly one of the following must be set.
	Pipeline *PipelineConfig
	Baseline *BaselineSpec
	Online   *OnlineConfig
}

// PipelinePoint builds a pipeline sweep cell.
func PipelinePoint(label string, w *Workload, cfg PipelineConfig) SweepPoint {
	return SweepPoint{Label: label, Workload: w, Pipeline: &cfg}
}

// BaselinePoint builds a baseline sweep cell.
func BaselinePoint(label string, w *Workload, b Baseline, cfg ExecuteConfig) SweepPoint {
	return SweepPoint{Label: label, Workload: w, Baseline: &BaselineSpec{Baseline: b, Config: cfg}}
}

// OnlinePoint builds an online-placer sweep cell.
func OnlinePoint(label string, w *Workload, cfg OnlineConfig) SweepPoint {
	return SweepPoint{Label: label, Workload: w, Online: &cfg}
}

// SweepResult is one cell's outcome.
type SweepResult struct {
	Label string
	// Run is the cell's final execution result (Pipeline.Run for
	// pipeline cells). Pipeline cells whose placements coincide — equal
	// reports apart from the strategy name, on the same workload,
	// machine and interposer options — SHARE one Run, as they share a
	// profile; each keeps its own Pipeline.Report.
	Run *RunResult
	// Pipeline carries every stage artifact for pipeline cells; its
	// Trace/ProfilingRun/Profile are SHARED with every cell that
	// memoized the same profiling configuration.
	Pipeline *PipelineResult
	// Wall is the wall-clock time of this cell's own work: the
	// advise+execute tail for pipeline cells, the whole run otherwise.
	// A cell sharing another cell's Run covers its advise plus any wait
	// for that run.
	Wall time.Duration
	// ProfileWall is the wall-clock cost of the memoized Profile+
	// Analyze artifact this cell used (zero for baseline/online cells).
	// Cells sharing a profile report the same value — sum it once per
	// distinct profile, not per cell.
	ProfileWall time.Duration
	// Refs is the number of simulated memory references of the final
	// run; cells sharing a Run report the shared run's refs.
	Refs int64
	// Err is this cell's failure, nil for a healthy cell. A failed
	// cell never takes the sweep down: a recovered panic lands here as
	// an ErrCellPanic-wrapped CellPanicError, a cancellation as an
	// ErrCanceled-wrapped error, and every other cell still completes
	// with its result bit-identical to a clean sweep's.
	Err error
}

// SweepOptions tunes RunSweep.
type SweepOptions struct {
	// Workers bounds the worker pool (0 = GOMAXPROCS; 1 = serial).
	Workers int
	// Obs, when non-nil, records the sweep as a deterministic event
	// stream: each cell's run events are captured into a private
	// buffered recorder while the cell executes on whatever worker the
	// pool chose, then flushed in cell order once the grid completes,
	// prefixed by a cell event carrying the cell's label, memo
	// disposition and (scheduling-dependent, for observability only)
	// worker id and wall time. The shared profiling runs themselves are
	// not traced — their owner is scheduling-dependent — so the stream
	// is byte-identical across worker counts except for the cell
	// events' "worker" and "wall_ns" fields. Any Obs recorder set on a
	// point's own config is replaced for the duration of the sweep.
	Obs *FlightRecorder
	// Fault, when non-nil, arms the seeded chaos plan: victim cells
	// and profiling keys are selected deterministically from the seed
	// (never from scheduling), injected failures land in per-cell Err
	// slots, and untouched cells stay bit-identical to a fault-free
	// sweep. Production sweeps leave it nil at zero cost.
	Fault *FaultInjector
	// Cache, when non-nil, adds a persistent tier under the in-process
	// profile memo: Profile+Analyze artifacts are looked up in (and
	// committed to) the content-addressed artifact cache, so repeated
	// sweeps — across processes, across days — skip the profiling runs
	// entirely. Because the cache key is the canonical content
	// fingerprint of the workload and profiling configuration, and the
	// stored trace/profile/result round-trip exactly, cached sweeps are
	// bit-identical to cold ones.
	Cache *ArtifactCache
}

// profiled is the memoized Stage 1+2 artifact of a pipeline cell and
// the wall time its profiling took.
type profiled struct {
	*stage.ProfileArtifact
	wall time.Duration
}

// profileKey derives the memoization key of a pipeline cell: the
// canonical content fingerprint of the workload plus every field the
// profiling stage reads, with defaults normalized so "0 = default" and
// the spelled-out default share one artifact. Two cells with equal
// keys would run byte-identical profiling runs, so they share one. The
// machine is fingerprinted by value — tier list, topology matrix,
// mode, everything — because any of it changes the trace.
//
// The key is durable: it contains no pointers, no map iteration order
// and no process state (the old scheme keyed on the workload POINTER
// and a %+v rendering, so it could not outlive the process), which is
// what lets SweepOptions.Cache share profiling artifacts across
// processes and daemon restarts.
func profileKey(w *Workload, cfg *PipelineConfig) sweep.Key {
	return sweep.Key(stage.ProfileKey(w, cfg.profileParams().Normalized()))
}

// executeKey derives the execution-sharing key of a pipeline cell: the
// exact canonical bytes of its profile key (which covers workload,
// machine, cores, seed and RefScale), its interposer options and its
// report with the strategy name cleared — every input of the
// production run but the manifest tag, which only traced runs, never
// shared, emit. The bytes themselves are the key, not a hash of them,
// so two different executions can never collide.
func executeKey(w *Workload, cfg *PipelineConfig, rep *PlacementReport) sweep.Key {
	r := *rep
	r.Strategy = ""
	return sweep.Key(obs.CanonicalBytes(struct {
		Profile   sweep.Key
		Interpose InterposeOptions
		Report    PlacementReport
	}{profileKey(w, cfg), cfg.Interpose, r}))
}

// RunSweep executes every point of a sweep grid and returns the
// results in point order. Pipeline cells sharing a profiling
// configuration share one Profile+Analyze computation, and cells whose
// placements coincide share one production run; all cells fan out
// across the worker pool. Results are identical to running the
// cells serially in order (Pipeline / RunBaseline / RunOnline per
// cell).
//
// A failing cell — organic error, injected fault, or recovered panic
// — fails only itself: its error lands in its result's Err field,
// every other cell completes bit-identical to a clean sweep, and the
// returned error aggregates all cell errors in cell order (the lowest
// failed index stays the primary for errors.Is). Malformed points are
// still rejected up front before anything runs.
func RunSweep(points []SweepPoint, opts SweepOptions) ([]SweepResult, error) {
	return RunSweepCtx(context.Background(), points, opts)
}

// RunSweepCtx is RunSweep under a context. Once ctx is done, cells
// not yet started fail with ErrCanceled-wrapped errors instead of
// running and in-flight runs stop at their next iteration/phase
// boundary, so a canceled sweep returns within roughly one cell's
// latency carrying every completed result.
func RunSweepCtx(ctx context.Context, points []SweepPoint, opts SweepOptions) ([]SweepResult, error) {
	// Validate and default eagerly so keys are derived from the final
	// configurations.
	cfgs := make([]SweepPoint, len(points))
	for i, p := range points {
		set := 0
		for _, on := range []bool{p.Pipeline != nil, p.Baseline != nil, p.Online != nil} {
			if on {
				set++
			}
		}
		if set != 1 {
			return nil, fmt.Errorf("hybridmem: sweep point %d (%q) must set exactly one of Pipeline, Baseline, Online", i, p.Label)
		}
		if p.Workload == nil {
			return nil, fmt.Errorf("hybridmem: sweep point %d (%q) has no workload", i, p.Label)
		}
		if p.Pipeline != nil {
			cfg := p.Pipeline.withDefaults()
			if err := cfg.validate(); err != nil {
				return nil, fmt.Errorf("hybridmem: sweep point %d (%q): %w", i, p.Label, err)
			}
			p.Pipeline = &cfg
		}
		cfgs[i] = p
	}

	keyOf := func(i int) sweep.Key {
		if cfgs[i].Pipeline == nil {
			return "" // no shared setup stage
		}
		return profileKey(cfgs[i].Workload, cfgs[i].Pipeline)
	}

	// Canonical distinct-key table: keyOrd numbers each profiling key
	// by first appearance in cell order, firstCell remembers which cell
	// introduced it. Both the trace's memo dispositions and the chaos
	// plan's setup-victim selection derive from this table rather than
	// from whichever goroutine actually won the promise race, so they
	// are scheduling-independent.
	keyOrd := make(map[sweep.Key]int)
	firstCell := make(map[sweep.Key]int)
	for i := range cfgs {
		k := keyOf(i)
		if k == "" {
			continue
		}
		if _, ok := keyOrd[k]; !ok {
			keyOrd[k] = len(keyOrd)
			firstCell[k] = i
		}
	}

	// The chaos plan, all decided before anything runs: which keys'
	// shared setup fails, which cells error or panic outright, which
	// cells' runs suffer allocation failures or epoch stalls. Victims
	// depend only on (seed, point, domain size) — nil plans everywhere
	// when no injector is armed.
	setupVictims := opts.Fault.Victims(faultinject.SweepSetup, len(keyOrd))
	errVictims := opts.Fault.Victims(faultinject.SweepCellError, len(cfgs))
	panicVictims := opts.Fault.Victims(faultinject.SweepCellPanic, len(cfgs))
	allocVictims := opts.Fault.Victims(faultinject.AllocFail, len(cfgs))
	delayVictims := opts.Fault.Victims(faultinject.EpochDelay, len(cfgs))

	// Tracing: every cell records into a private buffer, flushed in
	// cell order after the grid returns.
	var cellObs []*obs.Recorder
	var memo []string
	var cellWorker []int
	if opts.Obs != nil {
		cellObs = make([]*obs.Recorder, len(cfgs))
		memo = make([]string, len(cfgs))
		cellWorker = make([]int, len(cfgs))
		for i := range cfgs {
			cellObs[i] = obs.NewBuffer()
			switch k := keyOf(i); {
			case k == "":
				memo[i] = obs.MemoNone
			case firstCell[k] == i:
				memo[i] = obs.MemoMiss
			default:
				memo[i] = obs.MemoHit
			}
		}
	}

	// One simulator-state pool per worker: sweep.GridCtx hands point() the
	// worker index that runs the cell, and no worker executes two cells
	// concurrently, so each pool is single-threaded by construction.
	// Pooled runs are bit-identical to unpooled ones (engine.Pool), so
	// this cannot perturb the sweep's bit-identical-to-serial contract.
	// The clamp mirrors sweep.GridCtx's so pools[worker] is always valid.
	nWorkers := opts.Workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	if nWorkers > len(cfgs) {
		nWorkers = len(cfgs)
	}
	pools := make([]*engine.Pool, nWorkers)
	for i := range pools {
		pools[i] = engine.NewPool()
	}

	// Execution sharing: pipeline cells with equal executeKey run one
	// production Execute (traced and fault-scoped cells excepted, see
	// adviseAndExecute).
	runs := new(sweep.Memo[*RunResult])

	setup := func(i int) (*profiled, error) {
		p := cfgs[i]
		start := time.Now()
		// The artifact (and so any error) is shared by every cell with
		// this profiling key; name the error after the key's content —
		// identical for all sharers — rather than after whichever
		// cell's goroutine happened to run the setup, so diagnostics
		// stay scheduling-independent. The profiling run is untraced
		// for the same reason: its events would land in the buffer of
		// whichever sharer's goroutine claimed the promise first.
		if setupVictims != nil && setupVictims[keyOrd[keyOf(i)]] {
			// Named after the key's content (workload + seed, identical
			// for all sharers), like organic setup errors.
			return nil, fmt.Errorf("hybridmem: sweep %s (seed %d): profile stage: %w",
				p.Workload.Name, p.Pipeline.Seed, opts.Fault.Errorf(faultinject.SweepSetup, "profile run refused"))
		}
		art, _, err := stage.Load(opts.Cache, string(keyOf(i)), "profile", stage.EncodeProfileArtifact, stage.DecodeProfileArtifact,
			func() (*stage.ProfileArtifact, error) {
				return stage.Profile(p.Workload, p.Pipeline.profileParams(), engine.Config{Ctx: ctx})
			})
		if err != nil {
			return nil, fmt.Errorf("hybridmem: sweep %s (seed %d): %w", p.Workload.Name, p.Pipeline.Seed, err)
		}
		return &profiled{ProfileArtifact: art, wall: time.Since(start)}, nil
	}
	point := func(i, worker int, art *profiled) (SweepResult, error) {
		p := cfgs[i]
		res := SweepResult{Label: p.Label}
		if cellObs != nil {
			cellWorker[i] = worker
		}
		if panicVictims != nil && panicVictims[i] {
			panic(opts.Fault.PanicValue(faultinject.SweepCellPanic, fmt.Sprintf("cell %d (%s)", i, p.Label)))
		}
		if errVictims != nil && errVictims[i] {
			return res, fmt.Errorf("hybridmem: sweep %q: %w", p.Label,
				opts.Fault.Errorf(faultinject.SweepCellError, "cell %d refused", i))
		}
		// Engine-level faults run under a per-cell scope so ordinal
		// triggers (every Nth allocation / epoch) count per cell, not
		// per process — deterministic regardless of scheduling. Solver
		// starvation is global: every exact cell's node budget clamps.
		var cellFault *FaultInjector
		if opts.Fault != nil {
			pts := []faultinject.Point{faultinject.SolverStarve}
			if allocVictims != nil && allocVictims[i] {
				pts = append(pts, faultinject.AllocFail)
			}
			if delayVictims != nil && delayVictims[i] {
				pts = append(pts, faultinject.EpochDelay)
			}
			cellFault = opts.Fault.Scope(fmt.Sprintf("cell-%d", i), pts...)
		}
		start := time.Now()
		switch {
		case p.Pipeline != nil:
			cfg := *p.Pipeline
			cfg.pool = pools[worker]
			cfg.fault = cellFault
			if cellObs != nil {
				cfg.Obs = cellObs[i]
			}
			pr, err := adviseAndExecute(ctx, p.Workload, cfg, art.Trace, art.Run, art.Profile, runs)
			if err != nil {
				return res, fmt.Errorf("hybridmem: sweep %q: %w", p.Label, err)
			}
			res.Pipeline = pr
			res.Run = pr.Run
			res.ProfileWall = art.wall
		case p.Baseline != nil:
			bc := p.Baseline.Config
			bc.pool = pools[worker]
			bc.ctx = ctx
			bc.fault = cellFault
			if cellObs != nil {
				bc.Obs = cellObs[i]
			}
			r, err := RunBaseline(p.Workload, p.Baseline.Baseline, bc)
			if err != nil {
				return res, fmt.Errorf("hybridmem: sweep %q: %w", p.Label, err)
			}
			res.Run = r
		default:
			oc := *p.Online
			oc.pool = pools[worker]
			oc.ctx = ctx
			oc.fault = cellFault
			if cellObs != nil {
				oc.Obs = cellObs[i]
			}
			r, err := RunOnline(p.Workload, oc)
			if err != nil {
				return res, fmt.Errorf("hybridmem: sweep %q: %w", p.Label, err)
			}
			res.Run = r
		}
		res.Wall = time.Since(start)
		res.Refs = SimulatedRefs(res.Run)
		return res, nil
	}
	results, errs := sweep.GridCtx(ctx, len(cfgs), opts.Workers, keyOf, setup, point)
	for i := range results {
		// A panicking or never-started cell returns the zero result —
		// restore its label and attach its error.
		results[i].Label = cfgs[i].Label
		results[i].Err = errs[i]
	}
	// Flush cell buffers in cell order even on a failed sweep — the
	// partial trace is exactly what post-mortems want.
	if opts.Obs != nil {
		for i := range cfgs {
			kind := "online"
			switch {
			case cfgs[i].Pipeline != nil:
				kind = "pipeline"
			case cfgs[i].Baseline != nil:
				kind = "baseline"
			}
			obs.Emit(opts.Obs, obs.CellEvent{
				Cell:   i,
				Label:  cfgs[i].Label,
				Kind:   kind,
				Memo:   memo[i],
				Worker: cellWorker[i],
				WallNS: results[i].Wall.Nanoseconds(),
			})
			if errs[i] != nil {
				var cp *sweep.CellPanic
				obs.Emit(opts.Obs, obs.CellFailedEvent{
					Cell:  i,
					Label: cfgs[i].Label,
					Error: errs[i].Error(),
					Panic: errors.As(errs[i], &cp),
				})
			}
			cellObs[i].FlushTo(opts.Obs)
		}
	}
	return results, sweep.Join(errs)
}

// SimulatedRefs sums the memory references a run simulated — the
// numerator of a sweep's refs/s throughput.
func SimulatedRefs(r *RunResult) int64 {
	if r == nil {
		return 0
	}
	var s int64
	for _, ps := range r.PhaseStats {
		s += ps.Refs
	}
	return s
}
