package engine

import (
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pebs"
	"repro/internal/units"
)

// EpochSpec declares how a run is sliced into epochs for an
// EpochPolicy. An epoch ends when either bound is reached: after
// EveryIterations main-loop iterations (checked at iteration
// boundaries) or after EveryRefs simulated memory references (checked
// at phase boundaries, so long iterations still tick). At least one
// bound must be positive; a spec with both zero defaults to
// one-iteration epochs.
type EpochSpec struct {
	// EveryIterations ends an epoch every N main-loop iterations.
	EveryIterations int
	// EveryRefs ends an epoch once N references were simulated since
	// the previous boundary.
	EveryRefs int64
	// EveryFloorBytes ends an epoch once the tiers SLOWER than the
	// machine's default served that many demand bytes since the
	// previous boundary (checked at phase boundaries, like EveryRefs).
	// It is the N-tier rescue trigger: instead of re-advising on a
	// fixed iteration cadence, the placer is woken exactly when the
	// NVM/CXL floor starts to hurt. Machines without a floor tier
	// never fire it.
	EveryFloorBytes int64
	// SamplePeriod is the PEBS decimation of the in-run monitor
	// (0 = pebs.DefaultPeriod). The epoch monitor samples the LLC miss
	// stream independently of Config.Monitor's trace sampler.
	SamplePeriod uint64
}

func (s EpochSpec) withDefaults() EpochSpec {
	if s.EveryIterations <= 0 && s.EveryRefs <= 0 && s.EveryFloorBytes <= 0 {
		s.EveryIterations = 1
	}
	return s
}

// EpochInfo hands the closing epoch's observations to the policy.
type EpochInfo struct {
	// Index counts epochs from zero.
	Index int
	// Iteration is the main-loop iteration at the boundary.
	Iteration int
	// Now is the simulated time at the boundary.
	Now units.Cycles
	// Refs counts references simulated during the epoch.
	Refs int64
	// Samples are the epoch's PEBS samples (addresses + routines).
	Samples []pebs.Sample
	// TierBytes is the epoch's demand traffic per memory tier — the
	// concurrent stream a migration at this boundary must share
	// controllers with (see mem.MigrationTimeUnder).
	TierBytes map[mem.TierID]int64
	// Duration is the simulated length of the epoch; with TierBytes it
	// yields the demand rate the contention model prices against.
	Duration units.Cycles
}

// Migration asks the engine to rebind [Addr, Addr+Size) from one tier
// to another mid-run. The engine applies the page-table change and
// charges mem.MigrationTime to the run — live migration is not free,
// which is exactly what the online placer's cost-benefit gate weighs.
type Migration struct {
	Addr     uint64
	Size     int64
	From, To mem.TierID
}

// EpochPolicy is the optional extension of Policy that turns a run
// online: the engine slices the run into epochs per EpochSpec, runs a
// dedicated PEBS monitor, and at every boundary hands the accumulated
// samples to EpochEnd, applying the returned migrations. Policies that
// do not implement it run exactly as before — the seam is invisible to
// the offline framework.
type EpochPolicy interface {
	Policy
	// EpochSpec is read once per run, before execution starts.
	EpochSpec() EpochSpec
	// EpochEnd observes the closing epoch and returns the tier
	// migrations to apply at the boundary.
	EpochEnd(info EpochInfo) []Migration
}

// maybeEndEpoch closes the current epoch if a bound is reached.
// iterBoundary gates the iteration-count trigger so the refs trigger
// alone fires at phase granularity.
func (r *runner) maybeEndEpoch(it int, iterBoundary bool) {
	if r.epochPol == nil {
		return
	}
	trigger := r.epochSpec.EveryRefs > 0 && r.epochRefs >= r.epochSpec.EveryRefs
	if r.epochSpec.EveryFloorBytes > 0 && r.floorBytes() >= r.epochSpec.EveryFloorBytes {
		trigger = true
	}
	if iterBoundary && r.epochSpec.EveryIterations > 0 && r.epochIters >= r.epochSpec.EveryIterations {
		trigger = true
	}
	if !trigger {
		return
	}
	// Chaos seam: an injected stall at the boundary models a slow or
	// wedged epoch re-solve. It moves the simulated clock BEFORE the
	// boundary snapshot so the policy sees the delayed time, exactly
	// as a real stall would present.
	if d := r.cfg.Fault.EpochDelayCycles(); d > 0 {
		r.now += units.Cycles(d)
	}
	info := EpochInfo{
		Index: r.epochIdx, Iteration: it, Now: r.now,
		Refs: r.epochRefs, Samples: r.epochSamples,
		TierBytes: r.epochTierBytes, Duration: r.now - r.epochStart,
	}
	preMoves, preBytes := r.result.Migrations, r.result.MigratedBytes
	r.applyMigrations(r.epochPol.EpochEnd(info), info.TierBytes, info.Duration)
	if o := r.cfg.Obs; o != nil {
		tb := make(map[string]int64, len(info.TierBytes))
		for id, b := range info.TierBytes {
			tb[r.tierName(id)] = b
		}
		obs.Emit(o, obs.EpochEvent{
			Epoch: info.Index, Iteration: info.Iteration,
			Refs: info.Refs, DurationCycles: int64(info.Duration),
			TierBytes:  tb,
			Migrations: r.result.Migrations - preMoves, MigratedBytes: r.result.MigratedBytes - preBytes,
		})
	}
	r.epochIdx++
	r.result.Epochs++
	r.epochRefs = 0
	r.epochIters = 0
	r.epochSamples = nil
	r.epochTierBytes = make(map[mem.TierID]int64)
	r.epochStart = r.now
}

// tierName resolves a tier ID to its machine-config name for event
// payloads (events are rare; a linear scan over a handful of tiers is
// fine).
func (r *runner) tierName(id mem.TierID) string {
	for _, t := range r.machine.Tiers {
		if t.ID == id {
			return t.Name
		}
	}
	return "?"
}

// floorBytes sums the closing epoch's demand served by tiers slower
// than the default — the volume the EveryFloorBytes trigger watches.
func (r *runner) floorBytes() int64 {
	var s int64
	for t, b := range r.epochTierBytes {
		if r.floorTiers[t] {
			s += b
		}
	}
	return s
}

// applyMigrations rebinds the requested ranges and charges the move
// traffic: bytes cross both tiers at the slower endpoint's effective
// bandwidth — derated by NUMA distance and by the epoch's concurrent
// demand on shared memory controllers — plus per-page remap cost (see
// mem.MigrationTimeUnder). Charging the contended price keeps the
// engine's accounting consistent with the gate that approved the plan.
func (r *runner) applyMigrations(moves []Migration, demand map[mem.TierID]int64, window units.Cycles) {
	for _, mv := range moves {
		if mv.Size <= 0 || mv.From == mv.To {
			continue
		}
		r.space.PageTable().SetRange(mv.Addr, mv.Size, mv.To)
		cost := mem.MigrationTimeUnder(&r.machine, r.cores, mv.Size, mv.From, mv.To, demand, window)
		r.now += cost
		r.result.Migrations++
		r.result.MigratedBytes += mv.Size
		r.result.MigrationCycles += cost
	}
}
