// Package online implements the dynamic data placement the paper's
// Section V names as its open problem: instead of the offline
// profile-once/advise-once/execute-once pipeline, the run itself is
// sliced into epochs by the engine (engine.EpochPolicy); an in-run
// monitor accumulates the epoch's PEBS samples, an exponential-decay
// aggregator turns them into a recency-weighted per-object miss rate,
// and an incremental advisor re-solves placement against the LIVE
// footprint at every boundary. The resulting plan is only executed
// when a cost-benefit gate says the predicted net gain (the
// sample-expansion model of internal/predict, charged PAIRWISE per
// source/destination tier) outweighs the migration traffic with
// hysteresis to spare — so stable workloads settle after one placement
// and phase-shifting workloads re-place exactly when their hot set
// moves. On machines that declare shared memory controllers the gate
// prices migrations against the epoch's CONCURRENT traffic
// (mem.MigrationTimeUnder): a rescue move profitable at idle DDR
// bandwidth is refused while the application is streaming the
// controller the copy would cross.
//
// The placer is tier-count-agnostic: the per-epoch solve IS the
// offline advisor's cascade, advisor.Waterfall — fill the fastest
// tier, cascade the overflow down the hierarchy, default tier
// included — so on a DDR+MCDRAM+NVM node a cooling object does not
// merely fall out of MCDRAM; when the DDR knapsack rejects it too, it
// is DEMOTED BELOW DDR to the NVM floor, freeing default-tier room for
// the newly warm set. Migrations run between arbitrary tier pairs with
// pairwise move costs.
//
// Everything is allocated on the default heap (spilling down the
// hierarchy when an N-tier node's default tier fills); placement is
// page rebinding, the simulated move_pages(2). Allocations from a
// currently-placed site bind to their site's tier at birth — pages
// never touched cost nothing to place, which is how churny hot sites
// (the Lulesh temporaries) are captured with zero migration traffic.
// Static and stack data remain invisible, exactly as they are to
// auto-hbwmalloc.
package online

import (
	"fmt"
	"sort"

	"repro/internal/advisor"
	"repro/internal/alloc"
	"repro/internal/callstack"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/units"
)

// DefaultSamplePeriod is the default PEBS decimation of the in-run
// monitor — the same scaled period the offline profiler uses (see the
// root package's DefaultScaledPeriod), so one epoch of a scaled run
// yields the hundreds of samples the re-advisor needs.
const DefaultSamplePeriod = 1499

// The re-advisor's fixed tuning.
const (
	// epochDecay is the aggregator's per-epoch retention: how fast the
	// placer forgets cold history. A decayed steady-state score is
	// d/(1-d) of a fresh epoch's, so any value below 0.5 guarantees a
	// newly-hot group overtakes a stale one within a single epoch —
	// 0.35 leaves clear daylight.
	epochDecay = 0.35
	// minEpochSamples is the minimum attributed samples an epoch needs
	// before the placer acts on it — sparse epochs only decay.
	minEpochSamples = 8
	// horizonEpochs is how many future epochs a new placement is
	// assumed to persist when weighing gain against move cost.
	horizonEpochs = 3
)

// replanCycles is the modeled cost of one epoch's aggregation and
// knapsack re-solve (the greedy strategies are linear after sorting;
// ~5 µs at 1.4 GHz).
const replanCycles units.Cycles = 7000

// Options tune the online placer. Machine and Budget are required.
type Options struct {
	// Machine is the memory system the run executes on; its bandwidth
	// and latency numbers feed the migration cost-benefit gate.
	Machine mem.Machine
	// Cores used by the run (0 = all machine cores).
	Cores int
	// Budget is the fastest-tier byte budget the placer may bind.
	Budget int64
	// Budgets optionally caps the bytes the placer may bind per
	// additional non-default tier (e.g. an NVM floor); tiers without
	// an entry default to their full capacity. The fastest tier always
	// uses Budget.
	Budgets map[mem.TierID]int64

	// EveryIterations / EveryRefs bound the epoch length (see
	// engine.EpochSpec; all bounds zero = one-iteration epochs).
	EveryIterations int
	EveryRefs       int64
	// EveryFloorBytes additionally closes an epoch once tiers slower
	// than the default served that many demand bytes — the rescue
	// trigger that fires exactly when the NVM/CXL floor starts to
	// hurt, instead of waiting out an iteration cadence.
	EveryFloorBytes int64
	// SamplePeriod is the in-run monitor's PEBS decimation
	// (0 = DefaultSamplePeriod).
	SamplePeriod uint64

	// Hysteresis is the gate's safety factor (0 = 1.5): predicted
	// gain over the horizon must exceed Hysteresis times the
	// migration cost, so near-break-even churn (two objects of
	// similar heat swapping places) never moves data.
	Hysteresis float64
	// TotalEpochs, when positive, caps the horizon by the epochs
	// actually remaining — near the end of a run even a profitable
	// move cannot amortize.
	TotalEpochs int

	// Strategy packs the per-tier knapsacks (nil = advisor.DensityStrategy).
	Strategy advisor.Strategy

	// Obs, when non-nil, receives the placer's flight-recorder events:
	// one gate ACCEPT/REJECT per evaluation (with idle vs contended
	// cost), one per-tier budget/occupancy snapshot per epoch. nil
	// disables tracing at zero cost.
	Obs *obs.Recorder
}

func (o *Options) fill() {
	if o.SamplePeriod == 0 {
		o.SamplePeriod = DefaultSamplePeriod
	}
	if o.Hysteresis == 0 {
		o.Hysteresis = 1.5
	}
	if o.Strategy == nil {
		o.Strategy = advisor.DensityStrategy{}
	}
	if o.Cores <= 0 {
		o.Cores = o.Machine.Cores
	}
}

// counters are the placer's statistics; they leave the placer only
// through MetricsSnapshot.
type counters struct {
	resolves          int64 // epoch re-solves run
	repacked          int64 // committed site→tier changes
	samplesSeen       int64 // PEBS samples handed over
	samplesAttributed int64 // samples landing in a tracked region
	plansEvaluated    int64 // epochs where the solve disagreed with the current placement
	gateRejected      int64 // plans the cost-benefit gate refused
	moveEpochs        int64 // epochs that actually migrated data
	promotions        int64 // sites moved to a faster tier
	demotions         int64 // sites moved to a slower tier
	bytesPromoted     int64 // bytes migrated towards faster tiers
	bytesDemoted      int64 // bytes migrated towards slower tiers
	bindsAtAlloc      int64 // allocations bound to their tier at birth (no copy)
	solvePanics       int64 // epoch re-solves that panicked or were refused (placement kept)
}

// region is one live allocation the placer tracks.
type region struct {
	start uint64
	size  int64
	site  string
	seg   mem.TierID // tier of the backing heap segment (the rest state)
	cur   mem.TierID // tier the pages currently live on
}

// Policy is the online adaptive placer. It implements engine.Policy
// for the allocation path and engine.EpochPolicy for the epoch-driven
// re-advising loop.
type Policy struct {
	mk   *alloc.Memkind
	prog *callstack.Program
	opts Options

	tiers []mem.TierSpec // hierarchy, fastest -> slowest
	defID mem.TierID
	perf  map[mem.TierID]float64
	// budgets bounds the bytes bound per non-default tier; the default
	// tier is unbudgeted (its knapsack capacity bounds assignment).
	budgets map[mem.TierID]int64
	// packTiers is the hierarchy as the epoch re-solve's waterfall packs
	// it, index-aligned with tiers: each tier capped by its budget, the
	// default tier by its capacity.
	packTiers []advisor.TierConfig

	regions []region // live, sorted by start
	freed   []region // freed during the current epoch (sample graveyard)
	maxSize map[string]int64
	// epochMax is the largest request per site during the current
	// epoch; it sizes churny candidates (nothing live at the
	// boundary) from recent behaviour instead of all-time history,
	// so one historically huge allocation cannot permanently inflate
	// a site out of the knapsack.
	epochMax map[string]int64
	siteOf   map[uint64]string // stack fingerprint -> translated site

	agg      *Aggregator
	assigned map[string]mem.TierID // site -> solver-assigned tier
	usedBy   map[mem.TierID]int64  // page-aligned bytes on each non-default tier

	// demand/window hold the closing epoch's per-tier traffic and
	// duration (engine.EpochInfo): the concurrent stream migrations
	// are priced against on shared-controller machines.
	demand map[mem.TierID]int64
	window units.Cycles

	// lastCands is the latest re-solve's candidate count, for the
	// per-epoch solver trace event.
	lastCands int

	overhead units.Cycles
	stats    counters
}

// New builds the placer over a run's allocator façade and program.
func New(mk *alloc.Memkind, prog *callstack.Program, opts Options) (*Policy, error) {
	if mk == nil || prog == nil {
		return nil, fmt.Errorf("online: nil memkind or program")
	}
	if opts.Budget <= 0 {
		return nil, fmt.Errorf("online: non-positive budget %d", opts.Budget)
	}
	if err := opts.Machine.Validate(); err != nil {
		return nil, fmt.Errorf("online: %w", err)
	}
	if len(opts.Machine.Tiers) < 2 {
		return nil, fmt.Errorf("online: machine needs at least two tiers")
	}
	// The placer sees the hierarchy from the rank's NUMA domain: a
	// remote raw-fast tier slots by its effective perf, so promotions
	// target the nearest-fastest memory (identical to the raw order on
	// single-domain machines).
	hier := opts.Machine.NearHierarchy()
	fast := hier[0]
	def := opts.Machine.DefaultTier()
	if fast.ID == def.ID {
		return nil, fmt.Errorf("online: machine has no tier faster than the default")
	}
	// The placer binds pages directly (it bypasses the capacity-capped
	// heap arenas), so each budget must itself respect its physical
	// tier.
	if opts.Budget > fast.Capacity {
		return nil, fmt.Errorf("online: budget %d exceeds %s capacity %d",
			opts.Budget, fast.Name, fast.Capacity)
	}
	// A negative safety factor would invert the cost-benefit comparison.
	if opts.Hysteresis < 0 {
		return nil, fmt.Errorf("online: negative hysteresis %g", opts.Hysteresis)
	}
	opts.fill()
	p := &Policy{
		mk: mk, prog: prog, opts: opts,
		tiers:    hier,
		defID:    def.ID,
		perf:     make(map[mem.TierID]float64, len(hier)),
		budgets:  make(map[mem.TierID]int64, len(hier)),
		maxSize:  make(map[string]int64),
		epochMax: make(map[string]int64),
		siteOf:   make(map[uint64]string),
		agg:      NewAggregator(epochDecay),
		assigned: make(map[string]mem.TierID),
		usedBy:   make(map[mem.TierID]int64),
	}
	for _, t := range hier {
		p.perf[t.ID] = opts.Machine.EffectivePerf(t)
		cap := t.Capacity
		switch {
		case t.ID == p.defID:
			// Unbudgeted: its knapsack capacity bounds assignment.
		case t.ID == fast.ID:
			cap = opts.Budget
		case opts.Budgets[t.ID] > t.Capacity:
			return nil, fmt.Errorf("online: budget %d exceeds %s capacity %d",
				opts.Budgets[t.ID], t.Name, t.Capacity)
		case opts.Budgets[t.ID] > 0:
			cap = opts.Budgets[t.ID]
		}
		if t.ID != p.defID {
			p.budgets[t.ID] = cap
		}
		p.packTiers = append(p.packTiers, advisor.TierConfig{Name: t.Name, Capacity: cap})
	}
	if err := advisor.RejectHierarchyStrategyCascade("online", opts.Strategy, p.packTiers, def.Name); err != nil {
		return nil, fmt.Errorf("online: %w", err)
	}
	return p, nil
}

// Factory adapts the placer to the engine's policy seam. The engine
// detects the EpochPolicy extension and runs the epoch loop.
func Factory(opts Options) engine.PolicyFactory {
	return func(mk *alloc.Memkind, prog *callstack.Program) (engine.Policy, error) {
		return New(mk, prog, opts)
	}
}

// Name implements engine.Policy.
func (p *Policy) Name() string { return "online" }

// siteKey unwinds and (cached) translates an allocation stack to its
// site identity, charging the modeled costs like auto-hbwmalloc does.
func (p *Policy) siteKey(stack callstack.Stack) string {
	p.overhead += callstack.UnwindCost(len(stack))
	fp := stack.Fingerprint()
	if s, ok := p.siteOf[fp]; ok {
		return s
	}
	p.overhead += callstack.TranslateCost(len(stack))
	s := string(p.prog.Table.Translate(stack))
	p.siteOf[fp] = s
	return s
}

func (p *Policy) insert(rg region) {
	i := sort.Search(len(p.regions), func(i int) bool { return p.regions[i].start >= rg.start })
	p.regions = append(p.regions, region{})
	copy(p.regions[i+1:], p.regions[i:])
	p.regions[i] = rg
}

// findIndex locates the live region starting exactly at addr.
func (p *Policy) findIndex(addr uint64) (int, bool) {
	i := sort.Search(len(p.regions), func(i int) bool { return p.regions[i].start >= addr })
	if i < len(p.regions) && p.regions[i].start == addr {
		return i, true
	}
	return 0, false
}

// attribute maps a sampled address to the site owning it, consulting
// live regions first and then regions freed during the epoch (their
// samples predate the free).
func (p *Policy) attribute(addr uint64) (string, bool) {
	i := sort.Search(len(p.regions), func(i int) bool { return p.regions[i].start > addr })
	if i > 0 {
		rg := p.regions[i-1]
		if addr < rg.start+uint64(rg.size) {
			return rg.site, true
		}
	}
	for j := len(p.freed) - 1; j >= 0; j-- {
		rg := p.freed[j]
		if addr >= rg.start && addr < rg.start+uint64(rg.size) {
			return rg.site, true
		}
	}
	return "", false
}

// budgetFits reports whether adding pa bytes to tier respects its
// budget; the default tier is unbudgeted (its knapsack capacity bounds
// what gets assigned there).
func (p *Policy) budgetFits(tier mem.TierID, used map[mem.TierID]int64, pa int64) bool {
	b, capped := p.budgets[tier]
	return !capped || used[tier]+pa <= b
}

// bindAtBirth binds a fresh allocation of a placed site to its
// assigned tier when the budget allows: pages not yet touched move
// nothing. Default-tier assignments are skipped: a region that just
// spilled BELOW the default was rejected by the default heap moments
// ago, so rebinding its pages up would overcommit the tier the
// unbudgeted fast path cannot police — rescuing spilled regions is
// the epoch solver's job, bounded by its default-tier knapsack.
func (p *Policy) bindAtBirth(rg *region) {
	want, ok := p.assigned[rg.site]
	if !ok || want == rg.cur || want == p.defID {
		return
	}
	pa := units.PageAlign(rg.size)
	if !p.budgetFits(want, p.usedBy, pa) {
		return
	}
	p.mk.BindPages(rg.start, 0, rg.size, want)
	p.retier(rg, want)
	p.overhead += alloc.HBWAllocPenalty(rg.size)
	p.stats.bindsAtAlloc++
}

// retier moves the usedBy accounting of rg from its current tier to t.
func (p *Policy) retier(rg *region, t mem.TierID) {
	pa := units.PageAlign(rg.size)
	if rg.cur != p.defID {
		p.usedBy[rg.cur] -= pa
	}
	if t != p.defID {
		p.usedBy[t] += pa
	}
	rg.cur = t
}

// track registers a fresh region (post-allocation accounting).
func (p *Policy) track(rg region) {
	if rg.cur != p.defID {
		p.usedBy[rg.cur] += units.PageAlign(rg.size)
	}
	p.bindAtBirth(&rg)
	p.insert(rg)
}

// Malloc implements engine.Policy: everything lands on the default
// heap (cascading down the hierarchy if an N-tier default fills);
// placed-site allocations are page-bound to their tier at birth.
func (p *Policy) Malloc(stack callstack.Stack, size int64) (uint64, error) {
	addr, kind, err := p.mk.MallocFallback(alloc.KindDefault, size)
	if err != nil {
		return 0, err
	}
	site := p.siteKey(stack)
	if size > p.maxSize[site] {
		p.maxSize[site] = size
	}
	if size > p.epochMax[site] {
		p.epochMax[site] = size
	}
	seg, _ := p.mk.TierOf(kind)
	p.track(region{start: addr, size: size, site: site, seg: seg, cur: seg})
	return addr, nil
}

// Free implements engine.Policy, rebinding displaced pages to their
// segment's tier so the arena's reuse of the range never inherits a
// stale binding.
func (p *Policy) Free(addr uint64) error {
	if i, ok := p.findIndex(addr); ok {
		rg := p.regions[i]
		if rg.cur != rg.seg {
			p.mk.BindPages(rg.start, 0, rg.size, rg.seg)
		}
		if rg.cur != p.defID {
			p.usedBy[rg.cur] -= units.PageAlign(rg.size)
		}
		p.regions = append(p.regions[:i], p.regions[i+1:]...)
		p.freed = append(p.freed, rg)
	}
	return p.mk.Free(addr)
}

// Realloc implements engine.Policy. The region is re-tracked at its
// new address; a placed site's grown allocation re-binds under the
// budget check.
func (p *Policy) Realloc(stack callstack.Stack, addr uint64, size int64) (uint64, error) {
	if addr == 0 {
		return p.Malloc(stack, size)
	}
	i, ok := p.findIndex(addr)
	if !ok {
		na, _, err := p.mk.ReallocFallback(addr, size)
		return na, err
	}
	old := p.regions[i]
	if old.cur != old.seg {
		p.mk.BindPages(old.start, 0, old.size, old.seg)
	}
	if old.cur != p.defID {
		p.usedBy[old.cur] -= units.PageAlign(old.size)
	}
	p.regions = append(p.regions[:i], p.regions[i+1:]...)
	// Graveyard the old extent like Free does: samples taken against
	// the pre-realloc address earlier this epoch must still attribute.
	p.freed = append(p.freed, old)
	// An exhausted heap (a real event on N-tier machines with a
	// capacity-clamped default) spills the block down the hierarchy.
	na, kind, err := p.mk.ReallocFallback(addr, size)
	if err != nil {
		return 0, err
	}
	if size > p.maxSize[old.site] {
		p.maxSize[old.site] = size
	}
	if size > p.epochMax[old.site] {
		p.epochMax[old.site] = size
	}
	seg, _ := p.mk.TierOf(kind)
	p.track(region{start: na, size: size, site: old.site, seg: seg, cur: seg})
	return na, nil
}

// OverheadCycles implements engine.Policy.
func (p *Policy) OverheadCycles() units.Cycles { return p.overhead }

// MetricsSnapshot implements engine.MetricsProvider: the placer's
// always-on counters, merged into Result.Metrics at the end of the run.
// solver_resolves counts epoch re-solves; solver_objects_repacked
// counts committed site→tier changes across all epochs, so it equals
// online_promotions + online_demotions. The engine counts the epochs
// themselves (Result.Epochs).
func (p *Policy) MetricsSnapshot() map[string]int64 {
	st := &p.stats
	return map[string]int64{
		"solver_resolves":           st.resolves,
		"solver_objects_repacked":   st.repacked,
		"solver_panics":             st.solvePanics,
		"online_samples_seen":       st.samplesSeen,
		"online_samples_attributed": st.samplesAttributed,
		"online_plans_evaluated":    st.plansEvaluated,
		"online_gate_rejected":      st.gateRejected,
		"online_move_epochs":        st.moveEpochs,
		"online_promotions":         st.promotions,
		"online_demotions":          st.demotions,
		"online_bytes_promoted":     st.bytesPromoted,
		"online_bytes_demoted":      st.bytesDemoted,
		"online_binds_at_alloc":     st.bindsAtAlloc,
	}
}

// EpochSpec implements engine.EpochPolicy.
func (p *Policy) EpochSpec() engine.EpochSpec {
	return engine.EpochSpec{
		EveryIterations: p.opts.EveryIterations,
		EveryRefs:       p.opts.EveryRefs,
		EveryFloorBytes: p.opts.EveryFloorBytes,
		SamplePeriod:    p.opts.SamplePeriod,
	}
}

// siteAssign is one solver decision in waterfall packing order.
type siteAssign struct {
	site string
	tier mem.TierID
}

// EpochEnd implements engine.EpochPolicy: attribute the epoch's
// samples, re-run the waterfall against the live footprint, gate the
// diff on predicted net gain vs pairwise migration cost, and emit the
// migrations.
func (p *Policy) EpochEnd(info engine.EpochInfo) []engine.Migration {
	p.overhead += replanCycles
	// The epoch's demand traffic prices this boundary's migrations:
	// on machines with shared controllers, a plan profitable at idle
	// bandwidth can be unprofitable while the application streams the
	// controller the copy crosses.
	p.demand, p.window = info.TierBytes, info.Duration

	if o := p.opts.Obs; o != nil {
		budgets := make(map[string]int64, len(p.budgets))
		used := make(map[string]int64, len(p.usedBy))
		for _, t := range p.tiers {
			if b, ok := p.budgets[t.ID]; ok {
				budgets[t.Name] = b
			}
			if u, ok := p.usedBy[t.ID]; ok && u != 0 {
				used[t.Name] = u
			}
		}
		obs.Emit(o, obs.TierUsageEvent{Epoch: info.Index, Budgets: budgets, Used: used})
	}

	var attributed int64
	p.stats.samplesSeen += int64(len(info.Samples))
	for _, s := range info.Samples {
		if site, ok := p.attribute(s.Addr); ok {
			p.agg.Add(site, 1)
			attributed++
		}
	}
	p.stats.samplesAttributed += attributed
	p.freed = p.freed[:0]
	defer p.agg.EndEpoch()
	defer func() { p.epochMax = make(map[string]int64) }()

	if attributed < minEpochSamples {
		return nil
	}

	ordered, next, solved := p.safeSolve(info.Index)
	if !solved {
		return nil
	}

	// Site-level diff: which sites change tier (counting "unassigned"
	// as the default tier), and which regions sit off their desired
	// tier even without a site change (allocations that missed
	// bindAtBirth while a budget was transiently full).
	oldOf := func(site string) mem.TierID {
		if t, ok := p.assigned[site]; ok {
			return t
		}
		return p.defID
	}
	newOf := func(site string) mem.TierID {
		if t, ok := next[site]; ok {
			return t
		}
		return p.defID
	}
	changed := make(map[string]bool)
	for s := range p.assigned {
		if oldOf(s) != newOf(s) {
			changed[s] = true
		}
	}
	for s := range next {
		if oldOf(s) != newOf(s) {
			changed[s] = true
		}
	}
	if o := p.opts.Obs; o != nil {
		// One solver event per epoch re-solve: the greedy waterfall
		// expands no branch-and-bound nodes, so Nodes stays zero and the
		// interesting number is the churn the solve proposed.
		obs.Emit(o, obs.SolverEvent{
			Strategy: p.opts.Strategy.Name(), Objects: p.lastCands, Tiers: len(p.tiers),
			Epoch: info.Index, Repacked: len(changed),
		})
	}
	misplaced := false
	for i := range p.regions {
		rg := &p.regions[i]
		want := rg.seg
		if t, ok := next[rg.site]; ok {
			want = t
		}
		if rg.cur != want {
			misplaced = true
			break
		}
	}
	if len(changed) == 0 && !misplaced {
		return nil
	}
	p.stats.plansEvaluated++

	moves, moveCost, usedAfter := p.planMoves(ordered, next)

	// Price exactly what the plan moves: each site's epoch samples are
	// weighted by the fraction of its live bytes changing tier, and
	// charged PAIRWISE (from -> to) through the prediction model, so a
	// demotion below DDR books its own (smaller) loss and the net adds
	// up across an arbitrary hierarchy. Sites with nothing live
	// (churny temporaries) count in full against their assignment
	// change: placement serves their next allocations via bindAtBirth,
	// with zero move bytes.
	liveBytes := make(map[string]int64)
	for _, rg := range p.regions {
		liveBytes[rg.site] += units.PageAlign(rg.size)
	}
	pairSamples := make(map[tierPair]float64)
	for _, mv := range moves {
		if i, ok := p.findIndex(mv.Addr); ok {
			rg := &p.regions[i]
			n := float64(p.agg.EpochSamples(rg.site))
			if total := liveBytes[rg.site]; total > 0 {
				pairSamples[tierPair{mv.From, mv.To}] += n * float64(units.PageAlign(mv.Size)) / float64(total)
			}
		}
	}
	for s := range changed {
		if liveBytes[s] > 0 {
			continue
		}
		pairSamples[tierPair{oldOf(s), newOf(s)}] += float64(p.agg.EpochSamples(s))
	}

	// The hysteresis/cost-benefit gate: the plan only executes when
	// its predicted net gain, sustained over the horizon, exceeds the
	// pairwise migration cost with the hysteresis margin.
	net, horizon := p.gateTerms(info, pairSamples)
	pass := net*horizon > float64(moveCost)*p.opts.Hysteresis
	if o := p.opts.Obs; o != nil {
		// Price the same plan at idle bandwidth alongside the contended
		// cost the gate actually used, so the trace shows how much the
		// epoch's concurrent demand inflated this decision.
		var idle units.Cycles
		var moveBytes int64
		for _, mv := range moves {
			idle += mem.MigrationTime(&p.opts.Machine, p.opts.Cores, mv.Size, mv.From, mv.To)
			moveBytes += mv.Size
		}
		decision := obs.DecisionReject
		if pass {
			decision = obs.DecisionAccept
		}
		ev := obs.GateEvent{
			Epoch: info.Index, Decision: decision,
			NetGain: net, Horizon: horizon, Hysteresis: p.opts.Hysteresis,
			MoveCost: int64(moveCost), IdleCost: int64(idle),
			Moves: len(moves), MoveBytes: moveBytes,
		}
		if idle > 0 {
			ev.CostRatio = float64(moveCost) / float64(idle)
		}
		obs.Emit(o, ev)
	}
	if !pass {
		p.stats.gateRejected++
		return nil
	}

	// Commit: the engine applies the page-table changes and charges
	// the move traffic; the bookkeeping here must mirror it.
	for s := range changed {
		if p.perf[newOf(s)] > p.perf[oldOf(s)] {
			p.stats.promotions++
		} else {
			p.stats.demotions++
		}
	}
	p.assigned = next
	p.stats.repacked += int64(len(changed))
	for _, mv := range moves {
		if i, ok := p.findIndex(mv.Addr); ok {
			p.regions[i].cur = mv.To
		}
		if p.perf[mv.To] > p.perf[mv.From] {
			p.stats.bytesPromoted += mv.Size
		} else {
			p.stats.bytesDemoted += mv.Size
		}
	}
	p.usedBy = usedAfter
	if len(moves) > 0 {
		p.stats.moveEpochs++
	}
	return moves
}

// safeSolve runs the epoch re-solve under recover. The strategy is
// caller-supplied code running inside the engine's epoch loop, and
// one failing solve must not take the whole run down: when the solve
// panics, or the advisor refuses its selection (an overpacked tier),
// the placer keeps the current placement for this epoch, counts the
// failure (metric solver_panics), and emits a
// degrade event whose Detail carries the refusal or the panic value,
// so the trace explains the skipped re-plan.
func (p *Policy) safeSolve(epoch int) (ordered []siteAssign, next map[string]mem.TierID, ok bool) {
	var reason, detail string
	defer func() {
		if v := recover(); v != nil {
			reason, detail = "epoch-solve-panic", fmt.Sprint(v)
		}
		if reason != "" {
			p.stats.solvePanics++
			obs.Emit(p.opts.Obs, obs.DegradeEvent{
				Strategy: p.opts.Strategy.Name(), Reason: reason,
				Fallback: "keep-placement", Epoch: epoch, Detail: detail,
			})
			ordered, next, ok = nil, nil, false
		}
	}()
	ordered, next, err := p.solve()
	if err != nil {
		reason, detail = "epoch-solve-error", err.Error()
	}
	return ordered, next, err == nil
}

// solve re-runs advisor.Waterfall over the live footprint with
// decayed scores as the cost proxy: the fastest tier packs against the
// placer's budget, each slower tier — the default included, whose
// picks anchor the rescue of spilled regions — takes the best of the
// overflow, and what even the slowest knapsack rejects rests
// unassigned on its backing segment. A candidate is sized by its live
// page-aligned bytes; a churny site with nothing live at the boundary
// claims the room its next temporary will need — this epoch's largest
// request, or the all-time maximum if it did not allocate this epoch —
// so one historically huge allocation cannot permanently price a
// now-small site out of the knapsack. The recorder is nil: the epoch
// trace carries one solver event per re-solve, not per-tier pack events.
func (p *Policy) solve() ([]siteAssign, map[string]mem.TierID, error) {
	live := make(map[string]int64)
	for _, rg := range p.regions {
		live[rg.site] += units.PageAlign(rg.size)
	}
	objs := make([]advisor.Object, 0, len(p.maxSize))
	for site, maxSz := range p.maxSize {
		score := p.agg.Score(site)
		if score <= 0 {
			continue
		}
		size := live[site]
		if size == 0 {
			size = units.PageAlign(p.epochMax[site])
		}
		if size == 0 {
			size = units.PageAlign(maxSz)
		}
		objs = append(objs, advisor.Object{
			ID: site, Size: size,
			// Fixed-point so sub-sample decayed scores keep ordering.
			Misses: int64(score*1024 + 0.5),
		})
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].ID < objs[j].ID })

	p.stats.resolves++
	p.lastCands = len(objs)
	byTier, err := advisor.Waterfall(objs, p.packTiers, p.opts.Strategy, nil)
	if err != nil {
		return nil, nil, err
	}
	var ordered []siteAssign
	next := make(map[string]mem.TierID)
	for i, chosen := range byTier {
		for _, o := range chosen {
			ordered = append(ordered, siteAssign{site: o.ID, tier: p.tiers[i].ID})
			next[o.ID] = p.tiers[i].ID
		}
	}
	return ordered, next, nil
}

// planMoves builds the migration list a commit would need: moves
// towards slower tiers first (they free faster-tier room), then moves
// towards faster tiers in the waterfall's packing order while their
// destination budgets hold. Returns the list, its pairwise modeled
// cost, and the per-tier usage after applying it.
func (p *Policy) planMoves(ordered []siteAssign, next map[string]mem.TierID) ([]engine.Migration, units.Cycles, map[mem.TierID]int64) {
	m := &p.opts.Machine
	var moves []engine.Migration
	var cost units.Cycles
	usedAfter := make(map[mem.TierID]int64, len(p.usedBy))
	for t, v := range p.usedBy {
		usedAfter[t] = v
	}
	want := func(rg *region) mem.TierID {
		if t, ok := next[rg.site]; ok {
			return t
		}
		return rg.seg
	}
	move := func(rg *region, to mem.TierID) {
		pa := units.PageAlign(rg.size)
		moves = append(moves, engine.Migration{Addr: rg.start, Size: rg.size, From: rg.cur, To: to})
		cost += mem.MigrationTimeUnder(m, p.opts.Cores, rg.size, rg.cur, to, p.demand, p.window)
		if rg.cur != p.defID {
			usedAfter[rg.cur] -= pa
		}
		if to != p.defID {
			usedAfter[to] += pa
		}
	}
	// Pass 1: demotions, in address order.
	demoted := make(map[uint64]bool)
	for i := range p.regions {
		rg := &p.regions[i]
		to := want(rg)
		if to == rg.cur || p.perf[to] >= p.perf[rg.cur] {
			continue
		}
		if !p.budgetFits(to, usedAfter, units.PageAlign(rg.size)) {
			continue
		}
		move(rg, to)
		demoted[rg.start] = true
	}
	// Pass 2: promotions, in the waterfall's packing order.
	bySite := make(map[string][]int)
	for i := range p.regions {
		bySite[p.regions[i].site] = append(bySite[p.regions[i].site], i)
	}
	for _, as := range ordered {
		for _, i := range bySite[as.site] {
			rg := &p.regions[i]
			if demoted[rg.start] || rg.cur == as.tier || p.perf[as.tier] <= p.perf[rg.cur] {
				continue
			}
			if !p.budgetFits(as.tier, usedAfter, units.PageAlign(rg.size)) {
				continue
			}
			move(rg, as.tier)
		}
	}
	return moves, cost, usedAfter
}

// tierPair is one source/destination tier combination of a plan.
type tierPair struct{ from, to mem.TierID }

// gateTerms computes the gate's two inputs — the predicted per-epoch
// net gain of the plan and the amortization horizon — separately from
// the comparison, so the flight recorder can report the exact numbers
// each ACCEPT/REJECT was decided on.
func (p *Policy) gateTerms(info engine.EpochInfo, pairSamples map[tierPair]float64) (net, horizon float64) {
	m := &p.opts.Machine
	period := float64(p.opts.SamplePeriod)

	for pr, samples := range pairSamples {
		s := int64(samples + 0.5)
		misses := int64(float64(s) * period)
		net += predict.EpochDelta(m, p.opts.Cores, misses, pr.from, pr.to)
	}

	horizon = horizonEpochs
	if p.opts.TotalEpochs > 0 {
		rem := float64(p.opts.TotalEpochs - info.Index - 1)
		switch {
		case rem < 0:
			// The estimate has provably run out while the run keeps
			// going (e.g. a refs trigger outpaced an iteration-based
			// TotalEpochs): ignore the cap rather than freeze the
			// placer at a zero horizon for the rest of the run.
		case rem < horizon:
			horizon = rem
		}
	}
	return net, horizon
}
