// Package pebs simulates Precise Event-Based Sampling of last-level
// cache misses: it watches the LLC miss stream and emits every Nth
// miss as a sample carrying the referenced address plus the
// performance-counter context the folding analysis needs.
//
// On the Xeon Phi the paper samples one out of every 37,589 L2 miss
// events; the default period here is the same, and Table I's
// samples-per-process numbers emerge from the workloads' miss volumes
// exactly as they do on hardware.
package pebs

import (
	"fmt"

	"repro/internal/units"
)

// DefaultPeriod is the paper's sampling period (1 sample per 37,589
// LLC misses). It is prime-ish to avoid phase-locking with loops.
const DefaultPeriod = 37589

// Sample is one PEBS record.
type Sample struct {
	Cycle   units.Cycles // timestamp
	Addr    uint64       // referenced data address that missed the LLC
	Routine string       // routine executing at sample time
	Instrs  int64        // instructions retired since the previous sample
}

// Sampler decimates the LLC miss stream. It is driven in steps: the
// caller skips the misses that cannot be sampled and hands the sampler
// each stretch of misses at once (Advance), never reaching past the
// one it is due to take (Due), so the miss path pays one call per
// sample rather than one per miss.
type Sampler struct {
	period    uint64
	countdown int64 // misses until the next sample, counting that one
	emitted   int64

	// PerSampleCost is the modeled cost of servicing one PEBS
	// interrupt and writing the record; it feeds the monitoring
	// overhead accounting of Table I.
	PerSampleCost units.Cycles
}

// NewSampler returns a sampler with the given period (0 means
// DefaultPeriod).
func NewSampler(period uint64) *Sampler {
	if period == 0 {
		period = DefaultPeriod
	}
	return &Sampler{period: period, countdown: int64(period), PerSampleCost: 2800} // ~2 us
}

// Period returns the decimation period.
func (s *Sampler) Period() uint64 { return s.period }

// Due returns how many misses from now the next sample falls on: 1
// means the very next miss is sampled.
func (s *Sampler) Due() int64 { return s.countdown }

// Advance consumes n LLC misses, the last of which is at addr in
// routine, exactly as n one-miss steps would. n must lie in [1, Due()],
// so only the last miss can be the sampled one; Advance returns its
// sample template when it is.
func (s *Sampler) Advance(n int64, addr uint64, routine string) (Sample, bool) {
	if n < 1 || n > s.countdown {
		panic(fmt.Sprintf("pebs: Advance(%d) outside [1, %d]", n, s.countdown))
	}
	s.countdown -= n
	if s.countdown > 0 {
		return Sample{}, false
	}
	s.countdown = int64(s.period)
	s.emitted++
	return Sample{Addr: addr, Routine: routine}, true
}

// Emitted returns total samples emitted.
func (s *Sampler) Emitted() int64 { return s.emitted }

// OverheadCycles returns the cumulative modeled sampling overhead.
func (s *Sampler) OverheadCycles() units.Cycles {
	return units.Cycles(s.emitted) * s.PerSampleCost
}
