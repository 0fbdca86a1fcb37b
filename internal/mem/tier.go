// Package mem models the hybrid memory system of the simulated machine:
// an ordered hierarchy of memory tiers, their capacity, latency and
// bandwidth characteristics, and the page table that maps simulated
// virtual pages onto tiers.
//
// The reference machine (DefaultKNL) is the stand-in for the physical
// Intel Xeon Phi 7250 memory system used in the paper: 96 GB of DDR4
// (~90 GB/s) and 16 GB of MCDRAM (~480 GB/s in flat mode). As on real
// KNL hardware, MCDRAM has *worse* idle latency than DDR but far higher
// bandwidth, which is why only bandwidth-bound objects profit from
// promotion.
//
// Nothing in the model is two-tier specific: a Machine carries an
// arbitrary set of TierSpecs ordered by RelativePerf (see Hierarchy),
// and KNLOptane / HBMCXL describe three-tier nodes — a KNL node with an
// Optane-class NVM floor *slower* than DDR, and an HBM-first node with
// a CXL capacity expander — that the advisor, interposer and online
// placer handle with the same waterfall logic as the paper's DDR+MCDRAM
// pair.
package mem

import (
	"fmt"
	"sort"

	"repro/internal/units"
)

// TierID identifies a memory tier. IDs are labels, not an order:
// ordering comes from RelativePerf, never from the ID value. One ID
// carries meaning by convention — TierDDR (0) marks the DDR-class
// tier plain malloc is backed by, which Machine.DefaultTier keys off;
// user-defined machines should reserve ID 0 for their OS-default tier
// (or omit it to make the slowest tier the default).
type TierID uint8

// Well-known tier IDs used by the shipped machine configurations. They
// are a convenience, not a registry: user-defined machines may use any
// IDs (subject to the TierDDR convention above), and everything
// downstream (advisor, interposer, online placer) iterates over the
// configured set ordered by RelativePerf.
const (
	TierDDR TierID = iota
	TierMCDRAM
	TierNVM
	TierHBM
	TierCXL
)

// String implements fmt.Stringer. It is a last-resort label for bare
// IDs: authoritative tier naming lives in TierSpec.Name (see
// Machine.TierName), so user-defined tiers print the name their spec
// declares rather than a guess keyed off the ID.
func (t TierID) String() string {
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// TierSpec describes one memory tier.
type TierSpec struct {
	ID   TierID
	Name string

	// Capacity in bytes. Allocators refuse to exceed it.
	Capacity int64

	// LatencyCycles is the unloaded per-cacheline access latency.
	LatencyCycles units.Cycles

	// PeakBandwidth is the tier's saturated bandwidth in bytes/second.
	PeakBandwidth float64

	// PerCoreBandwidth is the bandwidth one core can draw by itself, in
	// bytes/second. Effective bandwidth at c cores is
	// min(c*PerCoreBandwidth, PeakBandwidth).
	PerCoreBandwidth float64

	// RelativePerf orders tiers for the advisor's knapsack descent
	// (higher = faster = filled first). The paper's hmem_advisor takes
	// the same notion from its memory configuration file. It is the
	// tier's LOCAL performance: consumers that price placements from a
	// specific NUMA domain divide it by the domain distance (see
	// Machine.EffectivePerf).
	RelativePerf float64

	// Domain is the NUMA domain the tier's DIMMs hang off (the socket
	// whose memory controller serves them). Zero on single-domain
	// machines. Accesses from other domains pay the Machine.Distance
	// factor in both latency and bandwidth.
	Domain int

	// Controller is the memory-controller group the tier drains
	// through. Zero means a dedicated channel (no modeled cross-tier
	// contention). Tiers sharing a positive Controller value contend
	// for the same controller: a migration stream touching one of them
	// fights the application's concurrent traffic on all of them (the
	// DDR+NVM shared-iMC effect on Optane nodes, or the shared mesh of
	// HBM+DDR packages). See MigrationTimeUnder.
	Controller int
}

// EffectiveBandwidth returns the bandwidth in bytes/second the tier
// delivers when cores cores stream against it concurrently.
func (s TierSpec) EffectiveBandwidth(cores int) float64 {
	if cores <= 0 {
		return 0
	}
	bw := float64(cores) * s.PerCoreBandwidth
	if bw > s.PeakBandwidth {
		return s.PeakBandwidth
	}
	return bw
}

// CacheModeKind selects how MCDRAM is exposed, mirroring the Xeon Phi
// memory modes explored in the paper.
type CacheModeKind uint8

const (
	// FlatMode exposes MCDRAM as separately allocatable memory.
	FlatMode CacheModeKind = iota
	// CacheMode configures MCDRAM as a direct-mapped memory-side cache
	// in front of DDR; software placement is ignored.
	CacheMode
)

// Machine is the full memory-system configuration of the simulated node.
type Machine struct {
	ClockHz  float64
	Cores    int
	LineSize int64
	Tiers    []TierSpec
	Mode     CacheModeKind

	// Domains is the number of NUMA domains (sockets / sub-NUMA
	// clusters). Zero or one means a uniform machine: every tier is
	// equidistant and all topology pricing degenerates to the flat
	// model.
	Domains int

	// Distance is the Domains×Domains NUMA distance matrix, normalized
	// so that 1.0 is a local access (the SLIT convention divided by the
	// local value). Accessing tier t from domain d scales t's latency
	// by Distance[d][t.Domain] and divides its effective bandwidth by
	// the same factor. A nil matrix means uniform distance 1.0
	// everywhere, even with several domains declared.
	Distance [][]float64

	// HomeDomain is the domain this machine's cores execute in — the
	// domain the engine pins the rank to. All tier pricing is taken
	// from its point of view.
	HomeDomain int

	// TierOverlap is the fraction of the non-dominant tiers' drain
	// time that hides under the dominant tier's in Traffic.MemoryTime
	// (tiers are independent channels, but demand accesses interleave
	// within each thread's dependency chains, so the overlap is
	// imperfect). Zero selects DefaultTierOverlap; contention
	// experiments override it per machine instead of patching source.
	TierOverlap float64

	// LLC describes the last-level cache in front of the memory tiers
	// (the L2 on Xeon Phi). PEBS samples its misses.
	LLC LLCSpec
}

// LLCSpec configures the simulated last-level cache.
type LLCSpec struct {
	Size     int64
	Ways     int
	LineSize int64
	// HitCycles is charged for every LLC hit; L1Hit for L1 hits.
	HitCycles units.Cycles
	L1Size    int64
	L1Ways    int
	L1Hit     units.Cycles
}

// DefaultKNL returns the reference configuration used throughout the
// evaluation: an Intel Xeon Phi 7250 lookalike at 1.40 GHz with 68
// cores, 96 GB DDR and 16 GB MCDRAM.
func DefaultKNL() Machine {
	return Machine{
		ClockHz:  units.DefaultClockHz,
		Cores:    68,
		LineSize: 64,
		Mode:     FlatMode,
		Tiers: []TierSpec{
			{
				ID: TierDDR, Name: "DDR",
				Capacity:         96 * units.GB,
				LatencyCycles:    180,
				PeakBandwidth:    90e9,
				PerCoreBandwidth: 11e9,
				RelativePerf:     1.0,
			},
			{
				ID: TierMCDRAM, Name: "MCDRAM",
				Capacity:         16 * units.GB,
				LatencyCycles:    230,
				PeakBandwidth:    480e9,
				PerCoreBandwidth: 13e9,
				RelativePerf:     4.8,
			},
		},
		LLC: LLCSpec{
			Size:      1 * units.MB,
			Ways:      16,
			LineSize:  64,
			HitCycles: 14,
			L1Size:    32 * units.KB,
			L1Ways:    8,
			L1Hit:     2,
		},
	}
}

// KNLOptane returns a three-tier Xeon Phi node extended with an
// Optane-DCPMM-class NVM floor: the DefaultKNL DDR+MCDRAM pair plus
// 512 GB of persistent memory that is *slower* than DDR in both
// latency and bandwidth. It models the App-Direct-style flat
// configuration Section V points past KNL towards: the waterfall
// advisor fills MCDRAM, overflows into DDR, and explicitly banishes
// the coldest objects to NVM so warm data never lands there by
// allocation-order accident.
func KNLOptane() Machine {
	m := DefaultKNL()
	m.Tiers = append(m.Tiers, TierSpec{
		ID: TierNVM, Name: "NVM",
		Capacity:         512 * units.GB,
		LatencyCycles:    420,
		PeakBandwidth:    38e9,
		PerCoreBandwidth: 2.2e9,
		RelativePerf:     0.4,
	})
	return m
}

// HBMCXL returns an HBM-first node with a CXL memory expander: 64 GB
// of on-package HBM (the fastest tier), 512 GB of DDR5 as the OS
// default, and 1 TB of CXL-attached capacity one hop further out. It
// is the "as many scenarios as you can imagine" counterpart to the KNL
// configs: same hierarchy machinery, different tier count, order and
// default position.
func HBMCXL() Machine {
	return Machine{
		ClockHz:  2.0e9,
		Cores:    56,
		LineSize: 64,
		Mode:     FlatMode,
		Tiers: []TierSpec{
			{
				ID: TierDDR, Name: "DDR",
				Capacity:         512 * units.GB,
				LatencyCycles:    220,
				PeakBandwidth:    307e9,
				PerCoreBandwidth: 12e9,
				RelativePerf:     1.0,
			},
			{
				ID: TierHBM, Name: "HBM",
				Capacity:         64 * units.GB,
				LatencyCycles:    260,
				PeakBandwidth:    1600e9,
				PerCoreBandwidth: 40e9,
				RelativePerf:     5.2,
			},
			{
				ID: TierCXL, Name: "CXL",
				Capacity:         1024 * units.GB,
				LatencyCycles:    440,
				PeakBandwidth:    64e9,
				PerCoreBandwidth: 3e9,
				RelativePerf:     0.3,
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

// Tier returns the spec for id, or false if not configured.
func (m *Machine) Tier(id TierID) (TierSpec, bool) {
	for _, t := range m.Tiers {
		if t.ID == id {
			return t, true
		}
	}
	return TierSpec{}, false
}

// TierName returns the configured name of tier id, falling back to the
// bare ID label for tiers the machine does not carry. Diagnostics
// should prefer it over TierID.String so user-defined tiers print the
// name their spec declares.
func (m *Machine) TierName(id TierID) string {
	if t, ok := m.Tier(id); ok && t.Name != "" {
		return t.Name
	}
	return id.String()
}

// Hierarchy returns the machine's tiers ordered fastest to slowest by
// RelativePerf (ties broken by ID for determinism), so user
// configurations may list Machine.Tiers in any order. No production
// caller: placement orders tiers by NearHierarchy, which equals this
// raw order on a uniform machine; DESIGN documents Hierarchy as the
// machine's tier order for library users, and the mem tests check
// NearHierarchy against it.
func (m *Machine) Hierarchy() []TierSpec {
	out := append([]TierSpec(nil), m.Tiers...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].RelativePerf != out[j].RelativePerf {
			return out[i].RelativePerf > out[j].RelativePerf
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// DefaultTier returns the tier plain malloc is backed by: the tier
// with ID TierDDR when the machine has one (the OS default on every
// node the paper and its successors consider — see the reservation on
// TierID), the slowest tier otherwise. Tiers faster than the default
// are filled by promotion; tiers slower than it only ever receive
// data by explicit placement or capacity overflow.
func (m *Machine) DefaultTier() TierSpec {
	if t, ok := m.Tier(TierDDR); ok {
		return t
	}
	return m.SlowestTier()
}

// FastestTier returns the tier with the highest RelativePerf.
func (m *Machine) FastestTier() TierSpec {
	best := m.Tiers[0]
	for _, t := range m.Tiers[1:] {
		if t.RelativePerf > best.RelativePerf {
			best = t
		}
	}
	return best
}

// SlowestTier returns the tier with the lowest RelativePerf.
func (m *Machine) SlowestTier() TierSpec {
	worst := m.Tiers[0]
	for _, t := range m.Tiers[1:] {
		if t.RelativePerf < worst.RelativePerf {
			worst = t
		}
	}
	return worst
}

// Validate reports configuration errors a user-supplied Machine may
// contain.
func (m *Machine) Validate() error {
	if m.ClockHz <= 0 {
		return fmt.Errorf("mem: clock must be positive, got %v", m.ClockHz)
	}
	if m.Cores <= 0 {
		return fmt.Errorf("mem: cores must be positive, got %d", m.Cores)
	}
	if m.LineSize <= 0 || m.LineSize&(m.LineSize-1) != 0 {
		return fmt.Errorf("mem: line size must be a positive power of two, got %d", m.LineSize)
	}
	if len(m.Tiers) == 0 {
		return fmt.Errorf("mem: at least one tier required")
	}
	if m.TierOverlap < 0 || m.TierOverlap > 1 {
		return fmt.Errorf("mem: tier overlap %g outside [0, 1]", m.TierOverlap)
	}
	if err := m.validateTopology(); err != nil {
		return err
	}
	seen := map[TierID]bool{}
	names := map[string]bool{}
	for _, t := range m.Tiers {
		if seen[t.ID] {
			return fmt.Errorf("mem: duplicate tier id %v", t.ID)
		}
		seen[t.ID] = true
		if t.Name != "" {
			if names[t.Name] {
				return fmt.Errorf("mem: duplicate tier name %q", t.Name)
			}
			names[t.Name] = true
		}
		if t.Capacity <= 0 {
			return fmt.Errorf("mem: tier %q capacity must be positive", m.TierName(t.ID))
		}
		if t.PeakBandwidth <= 0 || t.PerCoreBandwidth <= 0 {
			return fmt.Errorf("mem: tier %q bandwidth must be positive", m.TierName(t.ID))
		}
		if t.RelativePerf <= 0 {
			return fmt.Errorf("mem: tier %q relative perf must be positive", m.TierName(t.ID))
		}
		if t.Domain < 0 || t.Domain >= m.NumDomains() {
			return fmt.Errorf("mem: tier %q domain %d outside [0, %d)", m.TierName(t.ID), t.Domain, m.NumDomains())
		}
		if t.Controller < 0 {
			return fmt.Errorf("mem: tier %q controller must be non-negative", m.TierName(t.ID))
		}
	}
	return nil
}
