package mem

import "repro/internal/units"

// Traffic accumulates per-tier memory traffic within one timed region
// (a workload phase). The phase cost model converts it into time by
// charging, per tier, the larger of the latency component and the
// bandwidth component — the same first-order model that makes STREAM
// saturate at a tier's peak bandwidth while latency-bound pointer
// chases see the unloaded latency.
//
// The counters are dense arrays indexed directly by TierID (a uint8,
// so the full ID space is 256 entries — 4 KB of counters). Add sits on
// the innermost simulation loop, one call per LLC miss, so it must not
// hash: the uint8 index compiles to a bare array access with no bounds
// check and no allocation, and Reset zeroes the arrays in place rather
// than reallocating them every phase drain.
type Traffic struct {
	bytes  [256]int64
	visits [256]int64
}

// NewTraffic returns an empty accumulator.
func NewTraffic() *Traffic {
	return &Traffic{}
}

// Add records one memory-level access of n bytes against tier.
func (tr *Traffic) Add(tier TierID, n int64) {
	tr.bytes[tier] += n
	tr.visits[tier]++
}

// AddBulk records n transfers of bytesEach against tier in one call —
// the bulk path used when reconstructing traffic from decimated PEBS
// samples, where each sample stands for thousands of misses.
func (tr *Traffic) AddBulk(tier TierID, n, bytesEach int64) {
	if n <= 0 {
		return
	}
	tr.bytes[tier] += n * bytesEach
	tr.visits[tier] += n
}

// Bytes returns bytes moved against tier. No production caller: the
// cost model reads the counters directly; the mem and cache tests
// check per-tier traffic through it.
func (tr *Traffic) Bytes(tier TierID) int64 { return tr.bytes[tier] }

// Visits returns the number of line transfers against tier. No
// production caller: as for Bytes.
func (tr *Traffic) Visits(tier TierID) int64 { return tr.visits[tier] }

// Reset clears the accumulator in place.
func (tr *Traffic) Reset() {
	tr.bytes = [256]int64{}
	tr.visits = [256]int64{}
}

// DefaultTierOverlap is the fraction of the non-dominant tiers' drain
// time that hides under the dominant tier's. Tiers are independent
// channels, but demand accesses interleave within each thread's
// dependency chains, so the overlap is imperfect: the region's memory
// time is max + (1-overlap) * rest. Machines override the value via
// Machine.TierOverlap (see Machine.OverlapFraction).
const DefaultTierOverlap = 0.6

// BytesByTier returns a copy of the per-tier byte counters — the
// epoch-traffic snapshot the engine hands to topology-aware migration
// pricing.
func (tr *Traffic) BytesByTier() map[TierID]int64 {
	out := make(map[TierID]int64)
	for t, b := range tr.bytes {
		if b != 0 {
			out[TierID(t)] = b
		}
	}
	return out
}

// MemoryTime converts the accumulated traffic into simulated cycles for
// a region executed on cores cores of machine m.
//
// Per tier the cost is max(latencyComponent/overlap, bandwidthComponent):
// the latency component is visits*latency divided by the memory-level
// parallelism the cores can extract (outstanding misses overlap), and
// the bandwidth component is bytes / effectiveBandwidth. Both are
// priced from the machine's home domain: a remote tier's latency is
// multiplied by the NUMA distance and its bandwidth divided by it, so
// the same traffic costs more the farther the serving DIMMs sit.
// Across tiers the costs combine with partial overlap (see
// Machine.OverlapFraction).
func (tr *Traffic) MemoryTime(m *Machine, cores int) units.Cycles {
	if cores <= 0 {
		cores = 1
	}
	var worst, sum units.Cycles
	for _, spec := range m.Tiers {
		v := tr.visits[spec.ID]
		b := tr.bytes[spec.ID]
		if v == 0 && b == 0 {
			continue
		}
		dist := m.TierDistance(spec)
		// Each core sustains ~16 outstanding misses (KNL hardware
		// prefetchers keep many L2 fills in flight for streams).
		mlp := float64(cores) * 16
		lat := units.Cycles(float64(v) * float64(spec.LatencyCycles) * dist / mlp)
		bw := spec.EffectiveBandwidth(cores) / dist
		bwCycles := units.Cycles(float64(b) / bw * m.ClockHz)
		c := lat
		if bwCycles > c {
			c = bwCycles
		}
		sum += c
		if c > worst {
			worst = c
		}
	}
	return worst + units.Cycles(float64(sum-worst)*(1-m.OverlapFraction()))
}
