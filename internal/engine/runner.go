package engine

import (
	"context"
	"fmt"
	"math"

	"repro/internal/alloc"
	"repro/internal/cache"
	"repro/internal/callstack"
	"repro/internal/faultinject"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pebs"
	"repro/internal/runerr"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/xrand"
)

// MonitorConfig enables Extrae-style instrumentation of a run.
type MonitorConfig struct {
	// SamplePeriod is the PEBS decimation (0 = pebs.DefaultPeriod).
	SamplePeriod uint64
	// MinAllocSize: allocations below this size are not instrumented
	// (the paper uses 4 KB to skip I/O-related noise).
	MinAllocSize int64
	// CostScale scales the modeled instrumentation costs (unwind,
	// translate, trace write, PEBS interrupt service). The simulation
	// compresses run time by ~1000x while keeping the application's
	// real allocation counts, so charging real-microsecond event costs
	// against the compressed runtime would inflate the overhead
	// percentage; the default 0.05 restores Table I's sub-percent to
	// few-percent range. Set to 1 for unscaled costs.
	CostScale float64
}

// defaultCostScale is the shared event-cost compression factor of the
// scaled simulation (see MonitorConfig.CostScale); the trace monitor
// and the online epoch monitor must use the same one or static-vs-
// online overhead comparisons skew.
const defaultCostScale = 0.05

func (mc *MonitorConfig) costScale() float64 {
	if mc.CostScale <= 0 {
		return defaultCostScale
	}
	return mc.CostScale
}

// Config parameterizes one engine run.
type Config struct {
	Machine mem.Machine
	// Cores actually used by the run (0 = all machine cores).
	Cores int
	// Seed drives ASLR and access-pattern randomness.
	Seed uint64
	// MakePolicy builds the allocation policy (required).
	MakePolicy PolicyFactory
	// StaticsInFast moves the static and stack segments wholesale to
	// MCDRAM, as numactl -p 1 does for non-heap data.
	StaticsInFast bool
	// Monitor, when non-nil, records a trace with PEBS samples and
	// charges monitoring overhead.
	Monitor *MonitorConfig
	// RefScale scales every Touch.Refs (0 = 1.0); used to shrink test
	// runs.
	RefScale float64
	// Obs, when non-nil, receives the run's flight-recorder events
	// (manifest, epoch boundaries). The hot access loop never touches
	// it; nil disables tracing at zero cost.
	Obs *obs.Recorder
	// Tag annotates the run manifest with caller context the engine
	// cannot know itself — typically the placement strategy name.
	Tag string
	// Pool, when non-nil, donates reusable simulator state (page
	// table, cache hierarchy, allocator arenas) from earlier runs and
	// receives this run's for later ones. Results are bit-identical
	// with or without it; sweeps keep one pool per worker. A Pool must
	// never be shared by concurrent runs.
	Pool *Pool
	// Ctx, when non-nil, lets the run be canceled between phases and
	// iterations: the engine polls it at those boundaries (never in
	// the hot access loop) and returns a runerr.ErrCanceled-wrapped
	// error promptly. Nil means run to completion.
	Ctx context.Context
	// Fault, when non-nil, injects seeded faults (allocation failures,
	// epoch-boundary stalls) for chaos testing. Nil — the production
	// value — is a disabled injector at zero cost: the hooks sit on
	// the allocation and epoch paths only, never the access loop.
	Fault *faultinject.Injector
}

// PhaseStat is the engine's ground-truth record of one phase execution.
type PhaseStat struct {
	Routine   string
	Iteration int // -1 for init phases
	Start     units.Cycles
	Duration  units.Cycles
	Instrs    int64
	Refs      int64
}

// Result summarizes a run.
type Result struct {
	Workload string
	Policy   string
	Cores    int

	Cycles  units.Cycles
	Seconds float64
	FOM     float64
	FOMUnit string

	LLCAccesses int64
	LLCMisses   int64

	// MCDRAMCacheHits/Misses are populated in cache mode only.
	MCDRAMCacheHits   int64
	MCDRAMCacheMisses int64

	// HBWHWM is the fastest-tier heap high-water mark (the Fig. 4
	// middle column); TotalHWM adds every other heap plus statics and
	// stack (Table I). TierHWMs breaks the heap high-water marks out
	// per memory tier for N-tier machines.
	HBWHWM   int64
	DDRHWM   int64
	TotalHWM int64
	TierHWMs map[mem.TierID]int64

	AllocCalls int64
	FreeCalls  int64

	MonitorOverhead units.Cycles
	PolicyOverhead  units.Cycles
	Samples         int64

	// Online (EpochPolicy) statistics: epoch boundaries reached, live
	// migrations applied, bytes rebound between tiers, and the modeled
	// move-traffic cost charged to the run.
	Epochs          int64
	Migrations      int64
	MigratedBytes   int64
	MigrationCycles units.Cycles

	// Trace is non-nil for monitored runs.
	Trace *trace.Trace

	// PhaseStats in execution order (for folding and tests).
	PhaseStats []PhaseStat

	// ObjectMisses is the engine's ground-truth LLC miss attribution,
	// used to validate the sampled attribution of Paramedir.
	ObjectMisses map[string]int64

	// PlacementFailures counts allocations the policy wanted in fast
	// memory but could not fit.
	PlacementFailures int64

	// Metrics is the flight recorder's always-on counter snapshot:
	// cheap int64 counters the simulation structures maintain anyway
	// (page-table last-hit cache hits, refs simulated, arena reuse,
	// alloc traffic), gathered once at the end of the run.
	Metrics map[string]int64
}

// MonitorOverheadFraction returns monitoring overhead as a fraction of
// total run time (Table I's "Monitoring overhead" row).
func (r *Result) MonitorOverheadFraction() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.MonitorOverhead) / float64(r.Cycles)
}

type liveObject struct {
	spec *ObjectSpec
	addr uint64
	size int64
}

type pendingSample struct {
	accessIdx int64
	sample    pebs.Sample
}

type runner struct {
	w       *Workload
	cfg     *Config
	machine mem.Machine
	cores   int
	rng     *xrand.RNG
	prog    *callstack.Program
	space   *alloc.Space
	mk      *alloc.Memkind
	hier    *cache.Hierarchy
	policy  Policy
	sampler *pebs.Sampler
	tr      *trace.Trace

	now     units.Cycles
	objects map[string]*liveObject
	result  *Result

	// Per-access context for the LLC miss hook, and the count of
	// misses the hook's last return value asked the hierarchy to let
	// pass (see onLLCMiss).
	curRoutine string
	missDue    int64

	// Per-phase sample buffering for retroactive timestamping.
	phaseSamples []pendingSample
	phaseRefIdx  int64

	// Online-placement state (EpochPolicy runs only).
	epochPol     EpochPolicy
	epochSpec    EpochSpec
	epochSampler *pebs.Sampler
	epochSamples []pebs.Sample
	epochRefs    int64
	epochIters   int
	epochIdx     int
	// epochTierBytes accumulates the epoch's demand traffic per tier
	// (snapshotted from the cache hierarchy at each phase drain);
	// epochStart marks the boundary the epoch opened at. Together they
	// give the demand RATE the contention-aware migration pricing
	// charges gate-passing plans with.
	epochTierBytes map[mem.TierID]int64
	epochStart     units.Cycles
	floorTiers     map[mem.TierID]bool

	monitorOverhead units.Cycles
	allocEventCost  units.Cycles
}

// Run executes workload w under cfg and returns the run result.
func Run(w *Workload, cfg Config) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if cfg.MakePolicy == nil {
		return nil, fmt.Errorf("engine: Config.MakePolicy is required")
	}
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	cores := cfg.Cores
	if cores <= 0 {
		cores = cfg.Machine.Cores
	}
	rng := xrand.New(cfg.Seed ^ 0x5eed)
	prog := callstack.NewProgram(w.Program, rng.Fork(1))

	if len(cfg.Machine.Tiers) < 2 {
		return nil, fmt.Errorf("engine: machine needs at least two memory tiers")
	}
	// The run executes from the machine's home domain (the rank's NUMA
	// pin): the "fastest" tier is the effectively-fastest one from
	// there, and heaps are built in near-hierarchy order so fallback
	// chains spill by distance. Single-domain machines degenerate to
	// the raw hierarchy.
	defTier := cfg.Machine.DefaultTier()
	fastTier := cfg.Machine.NearFastestTier()
	pt := cfg.Pool.pageTable(defTier.ID)
	space := alloc.NewSpace(pt)

	r := &runner{
		w: w, cfg: &cfg, machine: cfg.Machine, cores: cores,
		rng: rng.Fork(2), prog: prog, space: space,
		objects: make(map[string]*liveObject),
		result: &Result{
			Workload: w.Name, Cores: cores, FOMUnit: w.FOMUnit,
			ObjectMisses: make(map[string]int64),
		},
	}

	// Static/stack segments claim fast capacity before the heaps do
	// (program load order), so the fastest-tier heap only gets the
	// remainder.
	fastLeft, defUsed, err := r.placeStaticsAndStack(fastTier.Capacity)
	if err != nil {
		return nil, err
	}
	if fastLeft < units.PageSize {
		fastLeft = units.PageSize
	}
	ddrHeap := w.DynamicFootprint()*2 + units.GB
	// The default tier's capacity only binds when the machine has an
	// effectively-slower tier to spill into: the paper's two-tier model
	// treats DDR as effectively unbounded for its workloads, while an
	// N-tier node with an NVM/CXL floor — or a remote tier the fallback
	// chain cascades to — makes DDR exhaustion a real event. Statics
	// and stack resident on the default tier count against its
	// capacity, so the heap gets only the remainder.
	if len(cfg.Machine.EffectivelySlowerTiers()) > 0 {
		avail := defTier.Capacity - defUsed
		if avail < units.PageSize {
			avail = units.PageSize
		}
		if ddrHeap > avail {
			ddrHeap = avail
		}
	}
	// One heap per tier: the default tier first (kind 0, plain malloc),
	// then every other tier in descending EFFECTIVE performance order,
	// so alloc.KindHBW keeps addressing the fastest non-default heap as
	// seen from the rank's domain. Each heap carries its effective perf
	// as the placement priority the fallback chains walk.
	heaps := []alloc.HeapSpec{{
		Tier: defTier, Size: ddrHeap, Perf: cfg.Machine.EffectivePerf(defTier),
	}}
	for _, t := range cfg.Machine.NearHierarchy() {
		if t.ID == defTier.ID {
			continue
		}
		size := t.Capacity
		if t.ID == fastTier.ID {
			size = fastLeft
		}
		heaps = append(heaps, alloc.HeapSpec{
			Tier: t, Size: size, Perf: cfg.Machine.EffectivePerf(t),
		})
	}
	mk, err := cfg.Pool.memkind(space, heaps)
	if err != nil {
		return nil, err
	}
	r.mk = mk

	hier, err := cfg.Pool.hierarchy(&r.machine, pt)
	if err != nil {
		return nil, err
	}
	r.hier = hier

	policy, err := cfg.MakePolicy(mk, prog)
	if err != nil {
		return nil, err
	}
	r.policy = policy
	r.result.Policy = policy.Name()

	if ep, ok := policy.(EpochPolicy); ok {
		r.epochPol = ep
		r.epochSpec = ep.EpochSpec().withDefaults()
		r.epochSampler = pebs.NewSampler(r.epochSpec.SamplePeriod)
		r.epochTierBytes = make(map[mem.TierID]int64)
		r.floorTiers = make(map[mem.TierID]bool)
		for _, t := range cfg.Machine.EffectivelySlowerTiers() {
			r.floorTiers[t.ID] = true
		}
		// The epoch monitor's interrupt cost is scaled like the trace
		// monitor's: the simulation compresses run time, so unscaled
		// per-event costs would inflate the overhead share. A custom
		// Monitor.CostScale applies to both monitors alike.
		scale := defaultCostScale
		if cfg.Monitor != nil {
			scale = cfg.Monitor.costScale()
		}
		r.epochSampler.PerSampleCost = units.Cycles(float64(r.epochSampler.PerSampleCost) * scale)
	}

	if cfg.Monitor != nil {
		r.sampler = pebs.NewSampler(cfg.Monitor.SamplePeriod)
		r.sampler.PerSampleCost = units.Cycles(float64(r.sampler.PerSampleCost) * cfg.Monitor.costScale())
		r.tr = trace.New(w.Name)
		r.tr.Meta["program"] = w.Program
		r.tr.Meta["period"] = fmt.Sprint(r.sampler.Period())
		r.tr.Meta["min_alloc"] = fmt.Sprint(cfg.Monitor.MinAllocSize)
		r.tr.Meta["cores"] = fmt.Sprint(cores)
	}

	// The miss hook exists only to feed samplers, and is called only
	// on the misses they sample. Per-object miss attribution is batched
	// per touch in runPhase (one map update per run of same-object
	// references instead of one per miss), so runs without a monitor or
	// epoch policy — most sweep cells — walk the access path with no
	// callback at all.
	if r.sampler != nil || r.epochSampler != nil {
		r.missDue = r.nextSample()
		hier.SetLLCMissHook(r.missDue, r.onLLCMiss)
	}

	if cfg.Obs != nil {
		names := make([]string, len(cfg.Machine.Tiers))
		for i, t := range cfg.Machine.Tiers {
			names[i] = t.Name
		}
		obs.Emit(cfg.Obs, obs.Manifest{
			Workload: w.Name,
			Policy:   policy.Name(),
			Strategy: cfg.Tag,
			Machine:  obs.Fingerprint(cfg.Machine),
			Tiers:    names,
			Cores:    cores,
			Seed:     cfg.Seed,
			RefScale: cfg.RefScale,
			// The fingerprint is taken over configuration VALUES —
			// obs.Fingerprint dereferences the Monitor pointer — so the
			// same run fingerprints identically in every process. (The
			// old %+v rendering hashed the *MonitorConfig address,
			// which made ConfigFP unique per allocation, never mind per
			// process.)
			ConfigFP: obs.Fingerprint(struct {
				Machine  mem.Machine
				Cores    int
				Seed     uint64
				RefScale float64
				Statics  bool
				Monitor  *MonitorConfig
				Policy   string
				Tag      string
			}{cfg.Machine, cores, cfg.Seed, cfg.RefScale, cfg.StaticsInFast, cfg.Monitor, policy.Name(), cfg.Tag}),
		})
	}

	if err := r.execute(); err != nil {
		return nil, err
	}
	return r.finish(), nil
}

// placeStaticsAndStack reserves the non-heap segments and registers
// their objects at fixed addresses. With StaticsInFast (numactl -p 1),
// each segment lands on the fastest tier only if it fits in the
// remaining fast capacity. It returns the fast capacity left for that
// tier's heap and the bytes that landed on the default tier (which
// count against the default tier's capacity when it is clamped).
func (r *runner) placeStaticsAndStack(fastCap int64) (int64, int64, error) {
	var defUsed int64
	layOut := func(segName string, class StorageClass, extra int64) error {
		var total int64 = extra
		for _, o := range r.w.Objects {
			if o.Class == class {
				total += units.PageAlign(o.Size)
			}
		}
		if total == 0 {
			return nil
		}
		tier := r.machine.DefaultTier().ID
		if r.cfg.StaticsInFast && total <= fastCap {
			tier = r.machine.NearFastestTier().ID
			fastCap -= total
		}
		if tier == r.machine.DefaultTier().ID {
			defUsed += total
		}
		seg, err := r.space.AddSegment(segName, total, tier)
		if err != nil {
			return err
		}
		next := seg.Base
		for i := range r.w.Objects {
			o := &r.w.Objects[i]
			if o.Class != class {
				continue
			}
			r.objects[o.Name] = &liveObject{spec: o, addr: next, size: o.Size}
			next += uint64(units.PageAlign(o.Size))
		}
		return nil
	}
	if err := layOut("statics", Static, r.w.StaticBytes); err != nil {
		return 0, 0, err
	}
	if err := layOut("stack", Stack, r.w.StackBytes); err != nil {
		return 0, 0, err
	}
	return fastCap, defUsed, nil
}

// onLLCMiss taps the miss stream for the PEBS samplers. The hierarchy
// calls it only on the miss the nearer sampler is due to take: it
// advances both samplers by the r.missDue misses since the last call
// (this one last) and returns the next due count. Object-level miss
// attribution does NOT happen here: runPhase computes it from the LLC
// miss counter delta around each touch. refIdx is the missing
// reference's index within the hierarchy's current batched call;
// phaseRefIdx holds the count of references issued by COMPLETED calls
// of this phase, so their sum is the reference's phase-stream index —
// the same value the per-reference path recorded.
func (r *runner) onLLCMiss(addr uint64, refIdx int64) int64 {
	if r.sampler != nil {
		if s, ok := r.sampler.Advance(r.missDue, addr, r.curRoutine); ok {
			r.phaseSamples = append(r.phaseSamples, pendingSample{accessIdx: r.phaseRefIdx + refIdx, sample: s})
		}
	}
	if r.epochSampler != nil {
		if s, ok := r.epochSampler.Advance(r.missDue, addr, r.curRoutine); ok {
			r.epochSamples = append(r.epochSamples, s)
		}
	}
	r.missDue = r.nextSample()
	return r.missDue
}

// nextSample returns how many misses from now the nearer sampler takes
// its next sample.
func (r *runner) nextSample() int64 {
	due := int64(math.MaxInt64)
	if r.sampler != nil {
		due = r.sampler.Due()
	}
	if r.epochSampler != nil {
		due = min(due, r.epochSampler.Due())
	}
	return due
}

// canceled reports the run's cancellation state; the engine polls it
// at phase and iteration boundaries, never in the access loop.
func (r *runner) canceled() error {
	if r.cfg.Ctx == nil {
		return nil
	}
	if err := runerr.Canceled(r.cfg.Ctx); err != nil {
		return fmt.Errorf("engine: %s: %w", r.w.Name, err)
	}
	return nil
}

// allocObject allocates a dynamic object through the policy, with
// instrumentation if monitoring is on.
func (r *runner) allocObject(o *ObjectSpec) error {
	if err := r.cfg.Fault.AllocFailure(o.Name); err != nil {
		return fmt.Errorf("engine: %s: alloc %q: %w", r.w.Name, o.Name, err)
	}
	stack := r.prog.Site(o.SitePath...)
	addr, err := r.policy.Malloc(stack, o.Size)
	if err != nil {
		return fmt.Errorf("engine: %s: alloc %q: %w", r.w.Name, o.Name, err)
	}
	r.objects[o.Name] = &liveObject{spec: o, addr: addr, size: o.Size}
	r.result.AllocCalls++
	r.now += baseMallocCycles
	r.recordAllocEvent(trace.EvAlloc, addr, 0, o.Size, stack)
	return nil
}

func (r *runner) recordAllocEvent(ty trace.EventType, addr, aux uint64, size int64, stack callstack.Stack) {
	if r.tr == nil || size < r.cfg.Monitor.MinAllocSize {
		return
	}
	depth := len(stack)
	cost := callstack.UnwindCost(depth) + callstack.TranslateCost(depth) + 1400
	cost = units.Cycles(float64(cost) * r.cfg.Monitor.costScale())
	r.monitorOverhead += cost
	r.now += cost
	r.tr.Append(trace.Record{
		Time: r.now, Type: ty, Addr: addr, Aux: aux, Size: size,
		Site: r.prog.Table.Translate(stack),
	})
}

func (r *runner) freeObject(o *ObjectSpec) error {
	lo, ok := r.objects[o.Name]
	if !ok {
		return fmt.Errorf("engine: free of unallocated object %q", o.Name)
	}
	if err := r.policy.Free(lo.addr); err != nil {
		return fmt.Errorf("engine: %s: free %q: %w", r.w.Name, o.Name, err)
	}
	delete(r.objects, o.Name)
	r.result.FreeCalls++
	r.now += baseMallocCycles / 2
	if r.tr != nil && lo.size >= r.cfg.Monitor.MinAllocSize {
		r.tr.Append(trace.Record{Time: r.now, Type: trace.EvFree, Addr: lo.addr})
	}
	return nil
}

func (r *runner) execute() error {
	// Register static objects in the trace by their symbol name. Stack
	// (automatic) objects are deliberately NOT registered: Extrae does
	// not support attributing references to automatic variables
	// (Section III, Step 1), so their samples show up unattributed —
	// which is why the framework can never learn about SNAP's register
	// spills while numactl and cache mode still capture them.
	if r.tr != nil {
		for _, o := range r.w.Objects {
			if o.Class != Static {
				continue
			}
			lo := r.objects[o.Name]
			r.tr.Append(trace.Record{Time: r.now, Type: trace.EvStatic, Addr: lo.addr, Size: lo.size, Routine: o.Name})
		}
	}

	// Program-lifetime dynamic allocations (application init).
	for i := range r.w.Objects {
		o := &r.w.Objects[i]
		if o.Class == Dynamic && o.Lifetime == LifetimeProgram {
			if err := r.allocObject(o); err != nil {
				return err
			}
		}
	}

	for _, ph := range r.w.InitPhases {
		if err := r.runPhase(&ph, -1); err != nil {
			return err
		}
	}
	// Epoch accounting starts with the main loop: init-phase refs and
	// samples are discarded so a refs-triggered first epoch is never
	// closed on (and the placer never advised by) init-only traffic.
	r.epochRefs = 0
	r.epochSamples = nil
	if r.epochPol != nil {
		r.epochTierBytes = make(map[mem.TierID]int64)
		r.epochStart = r.now
	}

	reallocIter := r.w.Iterations / 2
	for it := 0; it < r.w.Iterations; it++ {
		if err := r.canceled(); err != nil {
			return err
		}
		if r.tr != nil {
			r.tr.Append(trace.Record{Time: r.now, Type: trace.EvPhaseBegin, Routine: "__iter__", Counter: int64(it)})
		}
		// Whole-iteration churn objects.
		for i := range r.w.Objects {
			o := &r.w.Objects[i]
			if o.Class == Dynamic && o.Lifetime == LifetimeIteration && o.ChurnPhase == 0 {
				if err := r.allocObject(o); err != nil {
					return err
				}
			}
		}
		// Mid-run reallocs.
		if it == reallocIter {
			if err := r.reallocGrowers(); err != nil {
				return err
			}
		}
		for p := range r.w.IterPhases {
			// Rotated phases run only on their slot's iterations (the
			// phase-shifting workloads whose hot set moves mid-run).
			if !r.w.IterPhases[p].ActiveOn(it) {
				continue
			}
			// Phase-scoped churn: allocate just before, free right
			// after, so temporaries of different phases never coexist.
			if err := r.eachChurn(p+1, r.allocObject); err != nil {
				return err
			}
			if err := r.runPhase(&r.w.IterPhases[p], it); err != nil {
				return err
			}
			if err := r.eachChurn(p+1, r.freeObject); err != nil {
				return err
			}
			r.maybeEndEpoch(it, false)
		}
		for i := len(r.w.Objects) - 1; i >= 0; i-- {
			o := &r.w.Objects[i]
			if o.Class == Dynamic && o.Lifetime == LifetimeIteration && o.ChurnPhase == 0 {
				if err := r.freeObject(o); err != nil {
					return err
				}
			}
		}
		if r.tr != nil {
			r.tr.Append(trace.Record{Time: r.now, Type: trace.EvPhaseEnd, Routine: "__iter__", Counter: int64(it)})
		}
		r.epochIters++
		r.maybeEndEpoch(it, true)
	}

	// Program-lifetime frees.
	for i := len(r.w.Objects) - 1; i >= 0; i-- {
		o := &r.w.Objects[i]
		if o.Class == Dynamic && o.Lifetime == LifetimeProgram {
			if err := r.freeObject(o); err != nil {
				return err
			}
		}
	}
	return nil
}

// eachChurn applies f to every churn object scoped to the 1-based
// phase index.
func (r *runner) eachChurn(phase int, f func(*ObjectSpec) error) error {
	for i := range r.w.Objects {
		o := &r.w.Objects[i]
		if o.Class == Dynamic && o.Lifetime == LifetimeIteration && o.ChurnPhase == phase {
			if err := f(o); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *runner) reallocGrowers() error {
	for i := range r.w.Objects {
		o := &r.w.Objects[i]
		if o.ReallocTo == 0 {
			continue
		}
		lo, ok := r.objects[o.Name]
		if !ok {
			continue
		}
		stack := r.prog.Site(o.SitePath...)
		na, err := r.policy.Realloc(stack, lo.addr, o.ReallocTo)
		if err != nil {
			return fmt.Errorf("engine: %s: realloc %q: %w", r.w.Name, o.Name, err)
		}
		r.recordAllocEvent(trace.EvRealloc, na, lo.addr, o.ReallocTo, stack)
		lo.addr, lo.size = na, o.ReallocTo
		r.result.AllocCalls++
		r.now += baseMallocCycles
	}
	return nil
}

// runPhase streams the phase's touches through the hierarchy and
// accounts its time.
func (r *runner) runPhase(ph *Phase, iter int) error {
	if err := r.canceled(); err != nil {
		return err
	}
	phaseStart := r.now
	r.curRoutine = ph.Routine
	r.phaseSamples = r.phaseSamples[:0]
	r.phaseRefIdx = 0

	scale := r.cfg.RefScale
	if scale <= 0 {
		scale = 1
	}
	var totalRefs int64
	for t := range ph.Touches {
		tc := &ph.Touches[t]
		lo, ok := r.objects[tc.Object]
		if !ok {
			return fmt.Errorf("engine: phase %s touches dead object %q", ph.Routine, tc.Object)
		}
		refs := int64(float64(tc.Refs) * scale)
		if refs <= 0 {
			continue
		}
		missesBefore := r.hier.LLCMisses()
		r.generateAccesses(tc, lo, refs)
		// Batched attribution: the whole touch is one run of references
		// against one object, so its miss count is the LLC miss delta —
		// one map update per run instead of one per miss.
		if d := r.hier.LLCMisses() - missesBefore; d > 0 {
			r.result.ObjectMisses[tc.Object] += d
		}
		totalRefs += refs
	}

	instrs := ph.Instructions + totalRefs
	computeCycles := cyclesForInstructions(instrs, r.cores)
	if r.epochPol != nil {
		// Snapshot the phase's per-tier demand before the drain resets
		// it: the closing epoch's traffic prices migrations under
		// contention and feeds the floor-volume epoch trigger.
		for t, b := range r.hier.PendingTraffic().BytesByTier() {
			r.epochTierBytes[t] += b
		}
	}
	memCycles := r.hier.DrainPhase(r.cores)
	dur := computeCycles + memCycles
	if dur <= 0 {
		dur = 1
	}

	// Retroactively timestamp this phase's samples and spread the
	// phase's instructions across them (MIPS signal).
	if r.tr != nil && len(r.phaseSamples) > 0 {
		var prevIdx int64
		for _, ps := range r.phaseSamples {
			frac := float64(ps.accessIdx) / float64(totalRefs+1)
			gap := ps.accessIdx - prevIdx
			prevIdx = ps.accessIdx
			r.tr.Append(trace.Record{
				Time:    phaseStart + units.Cycles(frac*float64(dur)),
				Type:    trace.EvSample,
				Addr:    ps.sample.Addr,
				Routine: ps.sample.Routine,
				Counter: instrs * gap / (totalRefs + 1),
			})
		}
	}

	if r.tr != nil {
		r.tr.Append(trace.Record{Time: phaseStart, Type: trace.EvPhaseBegin, Routine: ph.Routine, Counter: int64(iter)})
		r.tr.Append(trace.Record{Time: phaseStart + dur, Type: trace.EvPhaseEnd, Routine: ph.Routine, Counter: int64(iter)})
	}
	r.result.PhaseStats = append(r.result.PhaseStats, PhaseStat{
		Routine: ph.Routine, Iteration: iter, Start: phaseStart,
		Duration: dur, Instrs: instrs, Refs: totalRefs,
	})
	r.epochRefs += totalRefs
	r.now = phaseStart + dur
	return nil
}

// generateAccesses issues refs references against the live object
// following the touch's pattern.
func (r *runner) generateAccesses(tc *Touch, lo *liveObject, refs int64) {
	span := lo.size
	if tc.HotFraction > 0 && tc.HotFraction < 1 {
		span = int64(float64(lo.size) * tc.HotFraction)
	}
	if span < 64 {
		span = 64
	}
	base := lo.addr
	// Whole touches are handed to the hierarchy as single batched runs
	// (cache.Hierarchy.AccessRun / AccessRandomRun): the offset
	// sequence, every counter and every PEBS callback are bit-identical
	// to the former per-reference Access loop, but sub-line hit runs
	// and same-tier miss runs are booked in bulk. phaseRefIdx advances
	// by the whole run; the miss hook adds the intra-run index back
	// (see onLLCMiss).
	switch tc.Pattern {
	case Sequential:
		// Sequential models streaming the WHOLE object once per phase
		// execution; the simulation samples refs references evenly
		// across it, so the touched page footprint matches the object
		// size (what cache mode and numactl compete over) while the
		// access count stays scaled.
		stride := (span / refs) &^ 63
		if stride < 64 {
			stride = 64
		}
		r.hier.AccessRun(base, stride, span, refs)
		r.phaseRefIdx += refs
	case Strided:
		stride := tc.Stride
		if stride <= 0 {
			stride = 256
		}
		r.hier.AccessRun(base, stride, span, refs)
		r.phaseRefIdx += refs
	case GatherRandom, PointerChase:
		r.hier.AccessRandomRun(base, span, refs, r.rng)
		r.phaseRefIdx += refs
	}
}

func (r *runner) finish() *Result {
	res := r.result
	res.PolicyOverhead = r.policy.OverheadCycles()
	r.now += res.PolicyOverhead
	if r.sampler != nil {
		r.monitorOverhead += r.sampler.OverheadCycles()
		r.now += r.sampler.OverheadCycles()
		res.Samples = r.sampler.Emitted()
	}
	if r.epochSampler != nil {
		// The online monitor's sampling cost is monitoring overhead
		// too — the online system pays for its own observations.
		r.monitorOverhead += r.epochSampler.OverheadCycles()
		r.now += r.epochSampler.OverheadCycles()
	}
	res.MonitorOverhead = r.monitorOverhead
	res.Cycles = r.now
	res.Seconds = r.now.Seconds(r.machine.ClockHz)
	res.FOM = r.w.FOM(res.Seconds)
	res.LLCAccesses = r.hier.LLCAccesses()
	res.LLCMisses = r.hier.LLCMisses()
	if mc := r.hier.MCDRAMCache(); mc != nil {
		res.MCDRAMCacheHits = mc.Hits()
		res.MCDRAMCacheMisses = mc.Misses()
	}
	res.TierHWMs = make(map[mem.TierID]int64, len(r.mk.Kinds()))
	res.DDRHWM = r.mk.Arena(alloc.KindDefault).HWM()
	res.TotalHWM = res.DDRHWM + r.w.StaticFootprint() + r.w.StackFootprint()
	fastKind := r.mk.FastestKind()
	for _, k := range r.mk.Kinds() {
		tier, _ := r.mk.TierOf(k)
		hwm := r.mk.Arena(k).HWM()
		res.TierHWMs[tier] = hwm
		if k == alloc.KindDefault {
			continue
		}
		res.TotalHWM += hwm
		res.PlacementFailures += r.mk.Arena(k).Failures()
		if k == fastKind || (fastKind == alloc.KindDefault && k == alloc.KindHBW) {
			res.HBWHWM = hwm
		}
	}
	if r.tr != nil {
		r.tr.Meta["samples"] = fmt.Sprint(res.Samples)
		r.tr.SortByTime()
		res.Trace = r.tr
	}

	// Always-on counter snapshot. These are plain increments the
	// allocator and page table maintain regardless of tracing; gathering
	// them is one map build per run.
	var refs int64
	for _, ps := range res.PhaseStats {
		refs += ps.Refs
	}
	var mallocs, frees, reuses, oomFailures int64
	for _, k := range r.mk.Kinds() {
		a := r.mk.Arena(k)
		mallocs += a.Mallocs()
		frees += a.Frees()
		reuses += a.Reuses()
		oomFailures += a.Failures()
	}
	res.Metrics = map[string]int64{
		"refs_simulated":       refs,
		"pagetable_last_hits":  r.space.PageTable().CoarseLastHits(),
		"arena_mallocs":        mallocs,
		"arena_frees":          frees,
		"arena_reuses":         reuses,
		"arena_failures":       oomFailures,
		"alloc_calls":          res.AllocCalls,
		"free_calls":           res.FreeCalls,
		"llc_accesses":         res.LLCAccesses,
		"llc_misses":           res.LLCMisses,
		"pebs_samples":         res.Samples,
		"epochs":               res.Epochs,
		"migrations":           res.Migrations,
		"migrated_bytes":       res.MigratedBytes,
		"placement_failures":   res.PlacementFailures,
		"pagetable_placements": r.space.PageTable().PlacedPages(),
	}
	if mp, ok := r.policy.(MetricsProvider); ok {
		for k, v := range mp.MetricsSnapshot() {
			res.Metrics[k] = v
		}
	}
	return res
}
