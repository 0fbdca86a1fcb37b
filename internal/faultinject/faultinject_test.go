package faultinject

import (
	"errors"
	"testing"
)

// TestVictimsDeterministic checks the core planning contract: the
// victim set is a pure function of (seed, point, domain size), with
// exactly the requested number of victims.
func TestVictimsDeterministic(t *testing.T) {
	spec := Spec{CellPanics: 3, CellErrors: 2, SetupErrors: 1}
	a := New(42, spec)
	b := New(42, spec)
	for _, p := range []Point{SweepCellPanic, SweepCellError, SweepSetup} {
		va, vb := a.Victims(p, 48), b.Victims(p, 48)
		count := 0
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("%s: victim sets differ at %d for identical seeds", p, i)
			}
			if va[i] {
				count++
			}
		}
		if want := spec.victims(p); count != want {
			t.Errorf("%s: %d victims, want %d", p, count, want)
		}
	}
	// A different seed should (for this pair) pick a different set;
	// the check guards against the hash ignoring the seed entirely.
	c := New(43, spec)
	same := true
	va, vc := a.Victims(SweepCellPanic, 48), c.Victims(SweepCellPanic, 48)
	for i := range va {
		if va[i] != vc[i] {
			same = false
		}
	}
	if same {
		t.Error("seeds 42 and 43 planned identical panic victims over 48 cells")
	}
}

// TestVictimsClampAndEmpty checks the degenerate domains.
func TestVictimsClampAndEmpty(t *testing.T) {
	f := New(7, Spec{CellErrors: 10})
	v := f.Victims(SweepCellError, 4)
	for i, hit := range v {
		if !hit {
			t.Errorf("victim count above domain size should mark all cells; cell %d unmarked", i)
		}
	}
	if f.Victims(SweepCellError, 0) != nil {
		t.Error("empty domain should plan nothing")
	}
	if f.Victims(AllocFail, 16) != nil {
		t.Error("point with zero spec count should plan nothing")
	}
}

// TestScopeFiltersPoints checks that a scope keeps only the listed
// points and that scoping away everything yields the nil (disabled)
// injector.
func TestScopeFiltersPoints(t *testing.T) {
	f := New(1, Spec{CellPanics: 1, AllocFails: 2, AllocFailEvery: 3, SolverNodeBudget: 100})
	s := f.Scope("cell-0", AllocFail)
	if s == nil {
		t.Fatal("scope with an active point came back nil")
	}
	if got := s.spec; got.AllocFailEvery != 3 || got.CellPanics != 0 || got.SolverNodeBudget != 0 {
		t.Errorf("scope spec = %+v, want only the alloc-fail fields", got)
	}
	if f.Scope("cell-1", EpochDelay) != nil {
		t.Error("scope with no active points should be nil")
	}
	var nilInj *Injector
	if nilInj.Scope("x", AllocFail) != nil {
		t.Error("scoping a nil injector should stay nil")
	}
}

// TestAllocFailureOrdinal checks the every-Nth trigger and that the
// injected error is ErrInjected-wrapped.
func TestAllocFailureOrdinal(t *testing.T) {
	f := New(9, Spec{AllocFails: 1, AllocFailEvery: 3})
	var fails []int
	for i := 1; i <= 9; i++ {
		if err := f.AllocFailure("obj"); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("injected error %v does not wrap ErrInjected", err)
			}
			fails = append(fails, i)
		}
	}
	if len(fails) != 3 || fails[0] != 3 || fails[1] != 6 || fails[2] != 9 {
		t.Errorf("allocation failures at %v, want [3 6 9]", fails)
	}
	if got := f.Counts()[AllocFail]; got != 3 {
		t.Errorf("tally[AllocFail] = %d, want 3", got)
	}
}

// TestEpochDelayOrdinal checks the epoch stall trigger.
func TestEpochDelayOrdinal(t *testing.T) {
	f := New(9, Spec{EpochDelays: 1, EpochDelayEvery: 2, EpochDelayCycles: 50})
	var total float64
	for i := 0; i < 6; i++ {
		total += f.EpochDelayCycles()
	}
	if total != 150 {
		t.Errorf("6 boundaries at every-2nd × 50 cycles = %v, want 150", total)
	}
}

// TestNilInjectorIsInert checks the disabled path end to end: every
// method is safe and allocation-free on a nil receiver, which is what
// keeps production runs at zero overhead.
func TestNilInjectorIsInert(t *testing.T) {
	var f *Injector
	if f.Victims(SweepCellPanic, 10) != nil || f.Errorf(SweepSetup, "x") != nil ||
		f.PanicValue(SweepCellPanic, "x") != nil || f.AllocFailure("x") != nil ||
		f.EpochDelayCycles() != 0 || f.SolverNodeBudget() != 0 ||
		f.Counts() != nil {
		t.Fatal("nil injector performed work")
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = f.AllocFailure("obj")
		_ = f.EpochDelayCycles()
		_ = f.SolverNodeBudget()
	})
	if allocs != 0 {
		t.Errorf("disabled fault hooks allocate %.1f per run, want 0", allocs)
	}
}

// TestChaosPlanReproducible pins the full-plan determinism the chaos
// harness relies on: scopes derived under the same labels fire
// identically across two independently built injectors.
func TestChaosPlanReproducible(t *testing.T) {
	build := func() (map[Point]int64, []bool) {
		f := New(1234, Spec{CellPanics: 2, AllocFails: 1, AllocFailEvery: 2, SolverNodeBudget: 64})
		victims := f.Victims(SweepCellPanic, 12)
		s := f.Scope("cell-5", AllocFail, SolverStarve)
		for i := 0; i < 4; i++ {
			_ = s.AllocFailure("obj")
		}
		_ = s.SolverNodeBudget()
		return f.Counts(), victims
	}
	c1, v1 := build()
	c2, v2 := build()
	for p, n := range c1 {
		if c2[p] != n {
			t.Errorf("tally[%s] = %d vs %d across identical plans", p, n, c2[p])
		}
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Errorf("victim %d differs across identical plans", i)
		}
	}
}
