// Package predict implements the paper's first future-work item
// (Section V): "explore ways of predicting the application performance
// gains when moving some data objects into fast memory ... replay the
// trace-file containing all the memory samples using a simulator."
//
// The predictor replays a profiling trace against a hypothetical
// placement WITHOUT re-running the application: each PEBS sample is a
// statistical stand-in for `period` LLC misses at its address, so the
// predictor reconstructs per-tier traffic per phase from samples alone,
// runs it through the same bandwidth/latency cost model as the engine,
// and scales the DDR-run phase times by the predicted memory-time
// ratio. Stage 4 then only needs to run for placements the prediction
// ranks as promising.
//
// Because every prediction goes through mem.Traffic.MemoryTime, the
// replay and the online gate's EpochDelta are topology-priced for
// free: traffic against a remote tier is charged the machine's NUMA
// distance in both latency and bandwidth, so a placement that ships
// the hot set across a socket hop predicts slower even when the remote
// tier's raw bandwidth is higher.
package predict

import (
	"fmt"
	"sort"

	"repro/internal/advisor"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/units"
)

// Prediction is the outcome of one replay.
type Prediction struct {
	// SpeedupVsDDR is the predicted run-time ratio DDR/placement
	// (values > 1 mean the placement is faster).
	SpeedupVsDDR float64
	// PredictedSeconds is the predicted wall time of the placement run.
	PredictedSeconds float64
	// MovedMissFraction is the fraction of sampled misses whose
	// objects the placement promotes.
	MovedMissFraction float64
	// PhaseSpeedups per routine (diagnostic).
	PhaseSpeedups map[string]float64
}

// replayer holds one walk's per-phase sample streams.
type replayer struct {
	machine mem.Machine

	phase  string
	phases map[string]*phaseAcc
	order  []string
}

type phaseAcc struct {
	// samples per object site ("" = unattributed / non-heap).
	samplesBySite map[string]int64
	total         int64
	// duration of the phase in the DDR profiling run.
	ddrCycles units.Cycles
	open      units.Cycles
	seen      bool
}

// Replay predicts the performance of running the traced application
// with the given placement report enforced, relative to the DDR
// profiling run the trace records.
func Replay(tr *trace.Trace, rep *advisor.Report, machine mem.Machine) (*Prediction, error) {
	if err := check(tr, rep, machine); err != nil {
		return nil, err
	}
	return replay(tr, machine).finish(rep)
}

// check validates Replay's inputs.
func check(tr *trace.Trace, rep *advisor.Report, machine mem.Machine) error {
	if tr == nil || rep == nil {
		return fmt.Errorf("predict: nil trace or report")
	}
	return machine.Validate()
}

// replay walks tr once into per-phase sample streams, which finish
// then prices against any number of reports.
func replay(tr *trace.Trace, machine mem.Machine) *replayer {
	r := &replayer{machine: machine, phases: make(map[string]*phaseAcc)}
	// The visitor never fails, so neither does the walk; the regions
	// still live at the end do not matter here.
	_, _ = tr.Walk(func(_ int, rec *trace.Record, reg trace.Region, _ bool) error {
		switch rec.Type {
		case trace.EvPhaseBegin:
			if rec.Routine != "__iter__" {
				r.beginPhase(rec.Routine, rec.Time)
			}
		case trace.EvPhaseEnd:
			if rec.Routine != "__iter__" {
				r.endPhase(rec.Routine, rec.Time)
			}
		case trace.EvSample:
			// reg is the zero Region, ID "", when no object holds it.
			r.sample(reg.ID)
		}
		return nil
	})
	return r
}

func (r *replayer) acc(name string) *phaseAcc {
	a, ok := r.phases[name]
	if !ok {
		a = &phaseAcc{samplesBySite: make(map[string]int64)}
		r.phases[name] = a
		r.order = append(r.order, name)
	}
	return a
}

func (r *replayer) beginPhase(name string, t units.Cycles) {
	r.phase = name
	a := r.acc(name)
	a.open = t
	a.seen = true
}

func (r *replayer) endPhase(name string, t units.Cycles) {
	if a, ok := r.phases[name]; ok && a.seen {
		a.ddrCycles += t - a.open
	}
	if r.phase == name {
		r.phase = ""
	}
}

func (r *replayer) sample(site string) {
	a := r.acc(r.phase)
	a.samplesBySite[site]++
	a.total++
}

// finish converts the per-phase sample streams into predicted times.
func (r *replayer) finish(rep *advisor.Report) (*Prediction, error) {
	// Resolve each entry's target tier against the machine. In a
	// legacy two-tier report (no per-tier budgets) every entry means
	// "promote", so unknown names degrade to the fastest tier; in an
	// N-tier report an unknown name may be a slower-than-default floor
	// this machine lacks, so the entry rests on the default instead —
	// mirroring the interposer's resolution rule.
	fastTier := r.machine.FastestTier()
	defTier := r.machine.DefaultTier()
	tierByName := make(map[string]mem.TierID, len(r.machine.Tiers))
	for _, t := range r.machine.Tiers {
		tierByName[t.Name] = t.ID
	}
	placed := make(map[string]mem.TierID)
	for _, e := range rep.Entries {
		if e.Static {
			continue
		}
		id, ok := tierByName[e.Tier]
		if !ok {
			if len(rep.Tiers) > 0 {
				continue
			}
			id = fastTier.ID
		}
		placed[e.ID] = id
	}

	line := r.machine.LineSize

	pred := &Prediction{PhaseSpeedups: make(map[string]float64)}
	var totalDDR, totalPred float64
	var movedSamples, allSamples int64

	for _, name := range r.order {
		a := r.phases[name]
		if a.total == 0 || a.ddrCycles <= 0 {
			continue
		}
		var moved int64
		for site, n := range a.samplesBySite {
			if t, ok := placed[site]; ok && t != defTier.ID {
				moved += n
			}
		}
		movedSamples += moved
		allSamples += a.total

		// Reconstruct the phase's tier traffic: each sample stands for
		// `period` misses of one line. The profiling run served every
		// miss from the default tier; the placement run serves each
		// site's misses from its target tier.
		ddrTraffic := mem.NewTraffic()
		newTraffic := mem.NewTraffic()
		ddrTraffic.AddBulk(defTier.ID, a.total, line)
		for site, n := range a.samplesBySite {
			tier, ok := placed[site]
			if !ok {
				tier = defTier.ID
			}
			newTraffic.AddBulk(tier, n, line)
		}
		ddrMem := ddrTraffic.MemoryTime(&r.machine, r.machine.Cores)
		newMem := newTraffic.MemoryTime(&r.machine, r.machine.Cores)
		if ddrMem <= 0 {
			continue
		}
		// The phase's DDR duration = compute + memory; assume the
		// sampled misses represent all memory time, so scale only the
		// memory share. Without a compute split in the trace, use the
		// conservative assumption memory-bound (the workloads the
		// framework targets are).
		ratio := float64(newMem) / float64(ddrMem)
		predCycles := float64(a.ddrCycles) * ratio
		pred.PhaseSpeedups[name] = 1 / ratio
		totalDDR += float64(a.ddrCycles)
		totalPred += predCycles
	}
	if totalDDR == 0 {
		return nil, fmt.Errorf("predict: trace contains no timed phases with samples")
	}
	pred.SpeedupVsDDR = totalDDR / totalPred
	pred.PredictedSeconds = units.Cycles(totalPred).Seconds(r.machine.ClockHz)
	if allSamples > 0 {
		pred.MovedMissFraction = float64(movedSamples) / float64(allSamples)
	}
	return pred, nil
}

// EpochDelta estimates the SIGNED cycles an epoch saves when `misses`
// of its line-sized LLC misses are served by tier `to` instead of
// `from` — the same sample-expansion idea as Replay, reduced to one
// epoch's miss volume so the online placer can weigh predicted gain
// against migration cost without a full trace. Negative values mean
// the move costs time (a demotion down the hierarchy), which is how
// the N-tier gate nets promotions against the demotions that fund
// them.
func EpochDelta(m *mem.Machine, cores int, misses int64, from, to mem.TierID) float64 {
	if misses <= 0 || from == to {
		return 0
	}
	was := mem.NewTraffic()
	was.AddBulk(from, misses, m.LineSize)
	now := mem.NewTraffic()
	now.AddBulk(to, misses, m.LineSize)
	return float64(was.MemoryTime(m, cores)) - float64(now.MemoryTime(m, cores))
}

// RankPlacements replays the trace once, prices that replay against
// several candidate reports and returns their indices ordered by
// predicted speedup, best first — the screening use case the paper
// envisions.
func RankPlacements(tr *trace.Trace, reports []*advisor.Report, machine mem.Machine) ([]int, []*Prediction, error) {
	preds := make([]*Prediction, len(reports))
	idx := make([]int, len(reports))
	var r *replayer // walked once, at the first report
	for i, rep := range reports {
		err := check(tr, rep, machine)
		if err == nil {
			if r == nil {
				r = replay(tr, machine)
			}
			preds[i], err = r.finish(rep)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("predict: report %d: %w", i, err)
		}
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return preds[idx[a]].SpeedupVsDDR > preds[idx[b]].SpeedupVsDDR
	})
	return idx, preds, nil
}
