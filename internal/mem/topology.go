package mem

import (
	"fmt"
	"sort"

	"repro/internal/units"
)

// This file is the topology half of the machine model: NUMA domains,
// the distance matrix, and the (tier, accessing-domain) pricing every
// placement consumer goes through. On real DDR+NVM nodes the NVM/CXL
// DIMMs hang off specific sockets; a remote hop multiplies latency and
// divides effective bandwidth, which can make a nominally fast tier
// SLOWER end-to-end than near DDR. The model is a pure generalization:
// single-domain machines (or uniform distance matrices) price every
// tier at distance 1.0 and every formula degenerates bit-for-bit to
// the flat two-operand model, pinned by the uniform-topology
// invariance tests.

// NumDomains returns the number of NUMA domains, at least one.
func (m *Machine) NumDomains() int {
	if m.Domains < 1 {
		return 1
	}
	return m.Domains
}

// DomainDistance returns the normalized NUMA distance between two
// domains: 1.0 for local or any pair the matrix does not cover (a nil
// matrix is a uniform machine).
func (m *Machine) DomainDistance(from, to int) float64 {
	if from == to || from < 0 || to < 0 {
		return 1.0
	}
	if from >= len(m.Distance) {
		return 1.0
	}
	row := m.Distance[from]
	if to >= len(row) || row[to] <= 0 {
		return 1.0
	}
	return row[to]
}

// TierDistance returns the distance the machine's home domain (where
// the rank's cores are pinned) pays to reach tier t.
func (m *Machine) TierDistance(t TierSpec) float64 {
	return m.DomainDistance(m.HomeDomain, t.Domain)
}

// EffectivePerf is t's RelativePerf as seen from the home domain:
// the configured (local) performance divided by the NUMA distance.
// It is THE placement-priority value of the topology-aware stack —
// the advisor's waterfall order, the allocator's fallback chains and
// the online placer's promotion/demotion direction all compare it.
// On a uniform machine it equals RelativePerf exactly.
func (m *Machine) EffectivePerf(t TierSpec) float64 {
	return t.RelativePerf / m.TierDistance(t)
}

// NearHierarchy returns the machine's tiers ordered fastest to slowest
// by EffectivePerf — the hierarchy as experienced from the home
// domain. Ties break by the raw RelativePerf and then by ID, so on a
// uniform machine the order is identical to Hierarchy(). This is the
// order the engine builds heaps in, fallback chains walk, and the
// online placer migrates along on topology-aware machines.
func (m *Machine) NearHierarchy() []TierSpec {
	out := append([]TierSpec(nil), m.Tiers...)
	sort.SliceStable(out, func(i, j int) bool {
		ei, ej := m.EffectivePerf(out[i]), m.EffectivePerf(out[j])
		if ei != ej {
			return ei > ej
		}
		if out[i].RelativePerf != out[j].RelativePerf {
			return out[i].RelativePerf > out[j].RelativePerf
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// NearFastestTier returns the tier with the highest EffectivePerf from
// the home domain — which may be the plain near DDR when the raw-
// fastest tier sits a hop away.
func (m *Machine) NearFastestTier() TierSpec {
	best := m.Tiers[0]
	for _, t := range m.Tiers[1:] {
		if m.EffectivePerf(t) > m.EffectivePerf(best) {
			best = t
		}
	}
	return best
}

// EffectivelySlowerTiers returns the tiers whose EffectivePerf from
// the home domain is strictly below the default tier's, in near-
// hierarchy order — the overflow chain capacity exhaustion actually
// cascades down on this machine. Unlike a raw-perf comparison, it
// counts a remote raw-faster tier (DualSocketHBM's HBM, effective
// 0.73 vs near DDR's 1.0) as part of the floor: traffic served there
// hurts, and the floor-volume epoch trigger must see it. On uniform
// machines it is every tier with a lower RelativePerf than the
// default.
func (m *Machine) EffectivelySlowerTiers() []TierSpec {
	defPerf := m.EffectivePerf(m.DefaultTier())
	var out []TierSpec
	for _, t := range m.NearHierarchy() {
		if m.EffectivePerf(t) < defPerf {
			out = append(out, t)
		}
	}
	return out
}

// OverlapFraction returns the cross-tier drain overlap MemoryTime
// combines tiers with: the machine's TierOverlap, or
// DefaultTierOverlap when unset.
func (m *Machine) OverlapFraction() float64 {
	if m.TierOverlap > 0 {
		return m.TierOverlap
	}
	return DefaultTierOverlap
}

// validateTopology checks the domain/distance configuration.
func (m *Machine) validateTopology() error {
	if m.Domains < 0 {
		return fmt.Errorf("mem: negative domain count %d", m.Domains)
	}
	n := m.NumDomains()
	if m.HomeDomain < 0 || m.HomeDomain >= n {
		return fmt.Errorf("mem: home domain %d outside [0, %d)", m.HomeDomain, n)
	}
	if m.Distance == nil {
		return nil
	}
	if len(m.Distance) != n {
		return fmt.Errorf("mem: distance matrix has %d rows for %d domains", len(m.Distance), n)
	}
	for i, row := range m.Distance {
		if len(row) != n {
			return fmt.Errorf("mem: distance row %d has %d entries for %d domains", i, len(row), n)
		}
		for j, d := range row {
			if d <= 0 {
				return fmt.Errorf("mem: distance[%d][%d] = %g must be positive", i, j, d)
			}
		}
		if row[i] != 1 {
			return fmt.Errorf("mem: distance[%d][%d] = %g, local distance must be 1", i, i, row[i])
		}
	}
	return nil
}

// WithUniformTopology returns the machine re-declared as a
// multi-domain node whose distance matrix is all ones, with tiers
// spread round-robin across the domains. Because every distance is
// 1.0, all topology pricing must degenerate to the flat model — the
// helper exists for the invariance tests that pin exactly that.
func WithUniformTopology(m Machine, domains int) Machine {
	if domains < 1 {
		domains = 1
	}
	m.Domains = domains
	m.Distance = make([][]float64, domains)
	for i := range m.Distance {
		m.Distance[i] = make([]float64, domains)
		for j := range m.Distance[i] {
			m.Distance[i][j] = 1
		}
	}
	m.Tiers = append([]TierSpec(nil), m.Tiers...)
	for i := range m.Tiers {
		m.Tiers[i].Domain = i % domains
	}
	return m
}

// WithSharedControllers returns the machine with the named tiers
// assigned to one shared memory-controller group: their demand and
// migration streams contend (see MigrationTimeUnder). The shipped
// machines leave controllers dedicated so existing results are
// untouched; contention experiments opt in per machine, e.g.
// WithSharedControllers(KNLOptane(), 1, TierDDR, TierNVM) models
// Optane DIMMs sharing the socket's iMC with DDR.
func WithSharedControllers(m Machine, controller int, tiers ...TierID) Machine {
	m.Tiers = append([]TierSpec(nil), m.Tiers...)
	for i := range m.Tiers {
		for _, id := range tiers {
			if m.Tiers[i].ID == id {
				m.Tiers[i].Controller = controller
			}
		}
	}
	return m
}

// DualSocketHBM returns the topology showcase: a two-socket node whose
// rank is pinned to socket 0 with plain DDR, while socket 1 carries an
// HBM-class expander that is FASTER than DDR locally (perf 1.6) but
// sits one interconnect hop away (distance 2.2). From socket 0 the
// effective perf of HBM is 1.6/2.2 ≈ 0.73 — slower end-to-end than
// near DDR in both latency (250·2.2 vs 200 cycles) and bandwidth
// (350/2.2 ≈ 159 vs 230 GB/s) — so a topology-aware advisor keeps the
// hot set on near DDR and uses remote HBM only as overflow above the
// NVM floor, while a topology-blind advisor (raw RelativePerf) ships
// the hot set across the link. DDR and NVM share socket 0's memory
// controller, the contention pair of MigrationTimeUnder.
func DualSocketHBM() Machine {
	return Machine{
		ClockHz:    2.0e9,
		Cores:      32,
		LineSize:   64,
		Mode:       FlatMode,
		Domains:    2,
		HomeDomain: 0,
		Distance: [][]float64{
			{1.0, 2.2},
			{2.2, 1.0},
		},
		Tiers: []TierSpec{
			{
				ID: TierDDR, Name: "DDR", Domain: 0, Controller: 1,
				Capacity:         96 * units.GB,
				LatencyCycles:    200,
				PeakBandwidth:    230e9,
				PerCoreBandwidth: 12e9,
				RelativePerf:     1.0,
			},
			{
				ID: TierHBM, Name: "HBM", Domain: 1,
				Capacity:         64 * units.GB,
				LatencyCycles:    250,
				PeakBandwidth:    350e9,
				PerCoreBandwidth: 16e9,
				RelativePerf:     1.6,
			},
			{
				ID: TierNVM, Name: "NVM", Domain: 0, Controller: 1,
				Capacity:         512 * units.GB,
				LatencyCycles:    420,
				PeakBandwidth:    38e9,
				PerCoreBandwidth: 2.2e9,
				RelativePerf:     0.4,
			},
		},
		LLC: LLCSpec{
			Size:      2 * units.MB,
			Ways:      16,
			LineSize:  64,
			HitCycles: 30,
			L1Size:    48 * units.KB,
			L1Ways:    12,
			L1Hit:     3,
		},
	}
}
