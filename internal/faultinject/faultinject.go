// Package faultinject is a deterministic, seeded fault injector for
// chaos-testing the execution layer. It follows the same nil-safe,
// zero-overhead-when-disabled idiom as internal/obs: a nil *Injector
// is valid everywhere and every method on it returns immediately, so
// production paths carry no cost and no branches beyond a nil check.
//
// Faults are planned, not rolled per call: victim selection ranks a
// domain of candidate indices by a seeded hash and picks the k
// smallest, so the same seed always hurts the same cells regardless
// of worker count or scheduling order. Ordinal triggers (every Nth
// allocation, every Nth epoch boundary) count inside a Scope, which
// is derived per unit of work, so they are deterministic per cell
// rather than per process.
package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Point names an injection point. Victim planning, firing and the
// fired-fault tally are all keyed by Point.
type Point string

const (
	// SweepSetup fails the shared profile/analyze setup of a victim
	// key, taking down every cell that shares it.
	SweepSetup Point = "sweep-setup-error"
	// SweepCellError makes a victim cell's point function return an
	// injected error.
	SweepCellError Point = "sweep-cell-error"
	// SweepCellPanic makes a victim cell's point function panic.
	SweepCellPanic Point = "sweep-cell-panic"
	// AllocFail fails an allocation inside a victim cell's engine run.
	AllocFail Point = "alloc-fail"
	// EpochDelay stalls a victim cell's simulated clock at epoch
	// boundaries.
	EpochDelay Point = "epoch-delay"
	// SolverStarve clamps the exact solver's node budget so it hits
	// its limit and exercises the degradation ladder.
	SolverStarve Point = "solver-starve"
	// CacheCorrupt garbles an artifact-cache entry as it is written,
	// modeling a torn write or bit rot: the entry's recorded checksums
	// no longer match its files, so the next read must detect the
	// corruption, drop the entry and recompute.
	CacheCorrupt Point = "cache-corrupt"
	// ClientDisconnect drops a victim advisory client's connection mid
	// conversation; the daemon must shrug and the other clients must
	// be unaffected.
	ClientDisconnect Point = "client-disconnect"
)

// ErrInjected is wrapped by every error the injector fabricates, so
// tests and reports can tell injected failures from organic ones with
// errors.Is.
var ErrInjected = errors.New("injected fault")

// Spec declares how much of each fault to inject. Victim counts
// (SetupErrors, CellErrors, CellPanics, AllocFails, EpochDelays) say
// how many units of the relevant domain are hit; the *Every fields
// pick the ordinal that fires inside a victim scope.
type Spec struct {
	SetupErrors int // distinct setup keys whose shared setup fails
	CellErrors  int // cells whose point returns an injected error
	CellPanics  int // cells whose point panics

	AllocFails     int   // cells that suffer allocation failures
	AllocFailEvery int64 // every Nth allocation fails inside such a cell

	EpochDelays      int     // cells whose epoch boundaries stall
	EpochDelayEvery  int64   // every Nth epoch boundary stalls
	EpochDelayCycles float64 // simulated cycles added per stall

	SolverNodeBudget int64 // clamp ExactNTier.MaxNodes (0 = leave alone)

	CacheCorrupts     int   // victim cache writes (Victims domain) for plan-based corruption
	CacheCorruptEvery int64 // every Nth cache write is garbled inside an armed scope

	ClientDisconnects int // advisory clients that drop their connection mid-conversation
}

func (s Spec) victims(p Point) int {
	switch p {
	case SweepSetup:
		return s.SetupErrors
	case SweepCellError:
		return s.CellErrors
	case SweepCellPanic:
		return s.CellPanics
	case AllocFail:
		return s.AllocFails
	case EpochDelay:
		return s.EpochDelays
	case SolverStarve:
		if s.SolverNodeBudget > 0 {
			return 1
		}
	case CacheCorrupt:
		return s.CacheCorrupts
	case ClientDisconnect:
		return s.ClientDisconnects
	}
	return 0
}

// keep returns a copy of the spec with only the listed points active.
func (s Spec) keep(points []Point) Spec {
	var out Spec
	for _, p := range points {
		switch p {
		case SweepSetup:
			out.SetupErrors = s.SetupErrors
		case SweepCellError:
			out.CellErrors = s.CellErrors
		case SweepCellPanic:
			out.CellPanics = s.CellPanics
		case AllocFail:
			out.AllocFails = s.AllocFails
			out.AllocFailEvery = s.AllocFailEvery
		case EpochDelay:
			out.EpochDelays = s.EpochDelays
			out.EpochDelayEvery = s.EpochDelayEvery
			out.EpochDelayCycles = s.EpochDelayCycles
		case SolverStarve:
			out.SolverNodeBudget = s.SolverNodeBudget
		case CacheCorrupt:
			out.CacheCorrupts = s.CacheCorrupts
			out.CacheCorruptEvery = s.CacheCorruptEvery
		case ClientDisconnect:
			out.ClientDisconnects = s.ClientDisconnects
		}
	}
	return out
}

func (s Spec) empty() bool {
	return s.SetupErrors == 0 && s.CellErrors == 0 && s.CellPanics == 0 &&
		(s.AllocFails == 0 || s.AllocFailEvery == 0) &&
		(s.EpochDelays == 0 || s.EpochDelayEvery == 0 || s.EpochDelayCycles == 0) &&
		s.SolverNodeBudget == 0 && s.CacheCorruptEvery == 0 &&
		s.ClientDisconnects == 0
}

// tally counts faults that actually fired, shared across all scopes
// derived from one root injector. It is reporting-only state: firing
// order varies with scheduling, the counts do not.
type tally struct {
	mu sync.Mutex
	m  map[Point]int64
}

func (t *tally) add(p Point) {
	t.mu.Lock()
	t.m[p]++
	t.mu.Unlock()
}

// Injector is a handle on one seeded fault plan. The zero value is
// not used; construct with New. A nil Injector is disabled.
type Injector struct {
	seed  uint64
	spec  Spec
	fired *tally

	mu        sync.Mutex
	allocs    int64
	epochs    int64
	cachePuts int64
}

// New builds an injector that injects spec deterministically under
// seed. Two injectors with the same seed and spec plan identical
// faults.
func New(seed uint64, spec Spec) *Injector {
	return &Injector{seed: seed, spec: spec, fired: &tally{m: make(map[Point]int64)}}
}

// Scope derives the injector for one named unit of work (a sweep
// cell, a solver invocation) with only the listed points active.
// Ordinal counters restart inside the scope, so every-Nth triggers
// are deterministic per unit rather than per process. Scoping a nil
// injector, or scoping away every active point, yields nil — the
// disabled injector — so downstream code pays nothing.
func (f *Injector) Scope(label string, points ...Point) *Injector {
	if f == nil {
		return nil
	}
	spec := f.spec.keep(points)
	if spec.empty() {
		return nil
	}
	return &Injector{seed: mix(f.seed ^ hashString(label)), spec: spec, fired: f.fired}
}

// Victims deterministically selects the victim indices for point p
// out of a domain of n candidates: each index is ranked by a seeded
// hash and the spec's victim count of smallest-ranked indices are
// marked. The selection depends only on (seed, point, n) — never on
// scheduling — and the returned slice is nil when nothing is planned.
func (f *Injector) Victims(p Point, n int) []bool {
	if f == nil || n <= 0 {
		return nil
	}
	k := f.spec.victims(p)
	if k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	rank := make([]int, n)
	for i := range rank {
		rank[i] = i
	}
	h := make([]uint64, n)
	for i := range h {
		h[i] = mix(f.seed ^ hashString(string(p)) ^ (uint64(i) + 1))
	}
	sort.Slice(rank, func(a, b int) bool {
		if h[rank[a]] != h[rank[b]] {
			return h[rank[a]] < h[rank[b]]
		}
		return rank[a] < rank[b]
	})
	out := make([]bool, n)
	for _, i := range rank[:k] {
		out[i] = true
	}
	return out
}

// Errorf fabricates an injected error for point p and records it in
// the fired tally. The result wraps ErrInjected.
func (f *Injector) Errorf(p Point, format string, args ...any) error {
	if f == nil {
		return nil
	}
	f.fired.add(p)
	return fmt.Errorf("%w: %s: %s", ErrInjected, p, fmt.Sprintf(format, args...))
}

// PanicValue fabricates the value a victim cell panics with and
// records the firing. Callers do the actual panic so the stack trace
// points at the injection site.
func (f *Injector) PanicValue(p Point, detail string) any {
	if f == nil {
		return nil
	}
	f.fired.add(p)
	return fmt.Sprintf("faultinject: %s: %s (seed %d)", p, detail, f.seed)
}

// AllocFailure reports whether the current allocation should fail,
// returning the injected error when it does. It counts allocations
// inside this scope; every AllocFailEvery-th one fails.
func (f *Injector) AllocFailure(what string) error {
	if f == nil || f.spec.AllocFailEvery <= 0 {
		return nil
	}
	f.mu.Lock()
	f.allocs++
	hit := f.allocs%f.spec.AllocFailEvery == 0
	f.mu.Unlock()
	if !hit {
		return nil
	}
	return f.Errorf(AllocFail, "alloc %s", what)
}

// EpochDelayCycles reports the simulated stall to charge at the
// current epoch boundary: every EpochDelayEvery-th boundary inside
// this scope stalls for EpochDelayCycles.
func (f *Injector) EpochDelayCycles() float64 {
	if f == nil || f.spec.EpochDelayEvery <= 0 || f.spec.EpochDelayCycles == 0 {
		return 0
	}
	f.mu.Lock()
	f.epochs++
	hit := f.epochs%f.spec.EpochDelayEvery == 0
	f.mu.Unlock()
	if !hit {
		return 0
	}
	f.fired.add(EpochDelay)
	return f.spec.EpochDelayCycles
}

// CacheCorruption reports whether the current artifact-cache write
// should be garbled: it counts cache writes inside this scope; every
// CacheCorruptEvery-th one is corrupted.
func (f *Injector) CacheCorruption() bool {
	if f == nil || f.spec.CacheCorruptEvery <= 0 {
		return false
	}
	f.mu.Lock()
	f.cachePuts++
	hit := f.cachePuts%f.spec.CacheCorruptEvery == 0
	f.mu.Unlock()
	if hit {
		f.fired.add(CacheCorrupt)
	}
	return hit
}

// SolverNodeBudget reports the clamped branch-and-bound node budget,
// or 0 to leave the solver's own budget alone. A consult that will
// starve the solver is recorded in the tally.
func (f *Injector) SolverNodeBudget() int64 {
	if f == nil || f.spec.SolverNodeBudget <= 0 {
		return 0
	}
	f.fired.add(SolverStarve)
	return f.spec.SolverNodeBudget
}

// Counts returns a copy of the fired-fault tally, aggregated across
// every scope derived from the same root injector.
func (f *Injector) Counts() map[Point]int64 {
	if f == nil {
		return nil
	}
	f.fired.mu.Lock()
	defer f.fired.mu.Unlock()
	out := make(map[Point]int64, len(f.fired.m))
	for k, v := range f.fired.m {
		out[k] = v
	}
	return out
}

// mix is splitmix64's finalizer: a cheap, well-distributed 64-bit
// hash used for both victim ranking and scope seed derivation.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString is FNV-1a, inlined to keep the package dependency-free.
func hashString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
