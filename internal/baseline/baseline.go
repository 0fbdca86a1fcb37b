// Package baseline implements the non-framework placement policies the
// paper compares against in Figure 4:
//
//   - DDR: everything on regular memory (the reference line).
//   - Numactl: numactl -p 1 — first-come-first-served into MCDRAM,
//     falling back to DDR when the fast tier is exhausted; combined
//     with engine.Config.StaticsInFast it also captures static and
//     stack data.
//   - AutoHBW: the memkind autohbw library — dynamic allocations at or
//     above a size threshold go to MCDRAM regardless of how hot they
//     are (the paper uses a 1 MB threshold, "autohbw/1m").
//
// MCDRAM cache mode is not a policy: it is a machine mode
// (mem.CacheMode) under which the DDR policy is run.
//
// All three policies are topology-transparent: alloc.KindHBW addresses
// the EFFECTIVELY-fastest non-default heap (the engine orders heaps by
// NUMA-derated perf from the rank's pinned domain), so on a
// multi-domain machine numactl -p 1 and autohbw promote into the
// nearest fast memory — exactly what `numactl --preferred` does on a
// real node — and their overflow follows the distance-ordered fallback
// chain.
package baseline

import (
	"errors"

	"repro/internal/alloc"
	"repro/internal/callstack"
	"repro/internal/engine"
	"repro/internal/units"
)

// ddrPolicy sends everything to the default heap. On machines with
// tiers slower than the default (DDR+NVM), a full default heap spills
// to the next slower tier in allocation order — the OS first-touch
// overflow a placement-oblivious run suffers, and exactly the failure
// mode the waterfall advisor exists to prevent: whichever object
// happens to allocate late lands on the slowest memory, hot or not.
type ddrPolicy struct {
	mk *alloc.Memkind
}

// DDR returns the factory for the everything-on-DDR reference policy.
func DDR() engine.PolicyFactory {
	return func(mk *alloc.Memkind, _ *callstack.Program) (engine.Policy, error) {
		return &ddrPolicy{mk: mk}, nil
	}
}

func (p *ddrPolicy) Name() string { return "ddr" }

func (p *ddrPolicy) Malloc(_ callstack.Stack, size int64) (uint64, error) {
	addr, _, err := p.mk.MallocFallback(alloc.KindDefault, size)
	return addr, err
}

func (p *ddrPolicy) Realloc(_ callstack.Stack, addr uint64, size int64) (uint64, error) {
	na, _, err := p.mk.ReallocFallback(addr, size)
	return na, err
}

func (p *ddrPolicy) Free(addr uint64) error { return p.mk.Free(addr) }

func (p *ddrPolicy) OverheadCycles() units.Cycles { return 0 }

// numactlPolicy prefers MCDRAM for every allocation and falls back to
// DDR once the fast tier is full — numactl -p 1 semantics. The first
// allocation that overflows MCDRAM exhausts the remaining fast pages
// (its leading pages land there page-by-page under first-touch, making
// them useless to later allocations), which is exactly how "irrelevant
// data objects may be placed on MCDRAM and prevent critical objects
// from fitting" (Section II).
type numactlPolicy struct {
	mk        *alloc.Memkind
	overhead  units.Cycles
	exhausted bool
}

// Numactl returns the factory for the numactl -p 1 policy. Pair it
// with engine.Config.StaticsInFast=true so non-heap segments follow.
func Numactl() engine.PolicyFactory {
	return func(mk *alloc.Memkind, _ *callstack.Program) (engine.Policy, error) {
		return &numactlPolicy{mk: mk}, nil
	}
}

func (p *numactlPolicy) Name() string { return "numactl" }

func (p *numactlPolicy) Malloc(_ callstack.Stack, size int64) (uint64, error) {
	if !p.exhausted {
		addr, err := p.mk.Malloc(alloc.KindHBW, size)
		if err == nil {
			p.overhead += alloc.HBWAllocPenalty(size)
			return addr, nil
		}
		if !errors.Is(err, alloc.ErrOutOfMemory) {
			return 0, err
		}
		// First-touch: the overflowing object's leading pages consume
		// whatever fast memory is left.
		p.mk.Arena(alloc.KindHBW).Exhaust()
		p.exhausted = true
	}
	addr, _, err := p.mk.MallocFallback(alloc.KindDefault, size)
	return addr, err
}

// Realloc resizes in the owning heap; an HBW block that outgrows the
// fast heap spills to DDR as first-touch overflow would.
func (p *numactlPolicy) Realloc(_ callstack.Stack, addr uint64, size int64) (uint64, error) {
	na, _, err := p.mk.ReallocFallback(addr, size)
	return na, err
}

func (p *numactlPolicy) Free(addr uint64) error { return p.mk.Free(addr) }

func (p *numactlPolicy) OverheadCycles() units.Cycles { return p.overhead }

// hbwFailCycles is the cost of a FAILED hbw_malloc attempt against an
// exhausted MCDRAM (~30 µs: the mmap+mbind round trip that errors out
// before the library falls back to the default heap). autohbw pays it
// for every threshold-passing allocation once fast memory is full —
// one of the two effects behind its 8% Lulesh regression (Section
// IV.C) — and for every HBW realloc that spills to DDR. The
// framework's budget check and decision cache avoid the attempt
// entirely.
const hbwFailCycles units.Cycles = 42000

// autohbwPolicy promotes allocations >= threshold to MCDRAM.
type autohbwPolicy struct {
	mk        *alloc.Memkind
	threshold int64
	overhead  units.Cycles
}

// AutoHBW returns the factory for the autohbw library with the given
// size threshold (the paper evaluates 1 MB).
func AutoHBW(threshold int64) engine.PolicyFactory {
	return func(mk *alloc.Memkind, _ *callstack.Program) (engine.Policy, error) {
		return &autohbwPolicy{mk: mk, threshold: threshold}, nil
	}
}

func (p *autohbwPolicy) Name() string { return "autohbw" }

func (p *autohbwPolicy) Malloc(_ callstack.Stack, size int64) (uint64, error) {
	if size >= p.threshold {
		addr, err := p.mk.Malloc(alloc.KindHBW, size)
		if err == nil {
			p.overhead += alloc.HBWAllocPenalty(size)
			return addr, nil
		}
		if !errors.Is(err, alloc.ErrOutOfMemory) {
			return 0, err
		}
		p.overhead += hbwFailCycles
	}
	addr, _, err := p.mk.MallocFallback(alloc.KindDefault, size)
	return addr, err
}

// Realloc resizes in the owning heap and spills to DDR when an HBW
// block outgrows the fast heap, as Malloc falls back. An HBW block pays
// the memkind allocator cost when it stays on HBW; a spilled one pays
// hbwFailCycles instead, the failed attempt a falling-back Malloc pays.
func (p *autohbwPolicy) Realloc(_ callstack.Stack, addr uint64, size int64) (uint64, error) {
	from, _ := p.mk.KindOf(addr)
	na, kind, err := p.mk.ReallocFallback(addr, size)
	if err != nil {
		return 0, err
	}
	if from == alloc.KindHBW {
		if kind == alloc.KindHBW {
			p.overhead += alloc.HBWAllocPenalty(size)
		} else {
			p.overhead += hbwFailCycles
		}
	}
	return na, nil
}

func (p *autohbwPolicy) Free(addr uint64) error { return p.mk.Free(addr) }

func (p *autohbwPolicy) OverheadCycles() units.Cycles { return p.overhead }
