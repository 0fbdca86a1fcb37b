// Package engine executes synthetic workloads on the simulated
// machine: it allocates their data objects through a pluggable
// allocation policy, streams their per-phase memory references through
// the cache hierarchy, accounts simulated time with the bandwidth/
// latency cost model, and optionally records an Extrae-style trace with
// PEBS samples — the "application run" at the centre of every stage of
// the paper's framework.
package engine

import (
	"fmt"

	"repro/internal/units"
)

// StorageClass says how an object is allocated, which determines
// whether the framework can move it: only Dynamic objects go through
// malloc and are visible to the interposition library. Static and
// Stack objects can be captured by numactl (whole-segment placement)
// or by MCDRAM cache mode, but never by auto-hbwmalloc — the root of
// the BT/CGPOP/SNAP behaviours in the evaluation.
type StorageClass uint8

// Storage classes.
const (
	Dynamic StorageClass = iota
	Static
	Stack
)

// String implements fmt.Stringer.
func (c StorageClass) String() string {
	switch c {
	case Dynamic:
		return "dynamic"
	case Static:
		return "static"
	case Stack:
		return "stack"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Lifetime says when an object exists.
type Lifetime uint8

// Lifetimes.
const (
	// LifetimeProgram objects are allocated during initialization and
	// live until program end (most HPC working sets).
	LifetimeProgram Lifetime = iota
	// LifetimeIteration objects are allocated at the top of every main
	// loop iteration and freed at its end (the Lulesh/MAXW-DGTD churn
	// that misleads the advisor's static-address-space assumption).
	LifetimeIteration
)

// ObjectSpec declares one data object of a workload.
type ObjectSpec struct {
	Name     string
	Class    StorageClass
	Lifetime Lifetime
	Size     int64
	// SitePath is the call path of the allocation statement (outermost
	// first), Dynamic objects only. Distinct objects may share a path —
	// that is precisely the inlining ambiguity of Section III.
	SitePath []string
	// ReallocTo, if positive, grows the object to this size via realloc
	// halfway through the run (LifetimeProgram dynamics only).
	ReallocTo int64
	// ChurnPhase scopes a LifetimeIteration object to ONE phase: when
	// positive, the object is allocated just before phase ChurnPhase
	// (1-based) and freed right after it, so temporaries of different
	// phases are never live concurrently. This is what makes
	// hmem_advisor's whole-run liveness assumption over-conservative
	// for churny applications (the Lulesh effect of Section IV.C).
	// Zero keeps the default whole-iteration lifetime.
	ChurnPhase int
}

// Pattern is a memory access pattern generator kind.
type Pattern uint8

// Access patterns.
const (
	// Sequential streams cache lines in address order.
	Sequential Pattern = iota
	// Strided skips by Touch.Stride bytes per reference.
	Strided
	// GatherRandom touches uniformly random locations (indexed gather,
	// irregular sparse access).
	GatherRandom
	// PointerChase is random with no memory-level parallelism; it is
	// latency- rather than bandwidth-sensitive.
	PointerChase
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case Strided:
		return "strided"
	case GatherRandom:
		return "gather"
	case PointerChase:
		return "chase"
	default:
		return fmt.Sprintf("pattern(%d)", uint8(p))
	}
}

// Touch is the access work one phase performs on one object.
type Touch struct {
	Object  string
	Pattern Pattern
	// Refs is the number of memory references issued per execution of
	// the phase, already scaled to simulation size.
	Refs int64
	// Stride for Strided, in bytes (0 defaults to 256).
	Stride int64
	// HotFraction restricts accesses to the first fraction of the
	// object (0 means the whole object).
	HotFraction float64
}

// Rotation schedules a phase onto a rotating slice of the iteration
// space: with Count slots of Every iterations each, the phase executes
// only on iterations where (iter/Every)%Count == Slot. Phases sharing
// Every and Count but holding different Slots take turns — the
// building block for phase-shifting workloads whose hot set moves
// between object groups mid-run, the scenario where online placement
// must beat a one-shot advisor. The zero value means always active.
type Rotation struct {
	// Every is the number of consecutive iterations per slot (0 = 1).
	Every int
	// Count is the number of rotating slots (0 or 1 = no rotation).
	Count int
	// Slot is this phase's turn, in [0, Count).
	Slot int
}

// Phase is one routine execution inside an iteration (or init).
type Phase struct {
	Routine string
	// Instructions retired by non-memory work in this phase, per
	// execution; drives compute time and the MIPS signal of Fig. 5.
	Instructions int64
	Touches      []Touch
	// Rotation, when Count > 1, restricts the phase to its rotating
	// slice of the main loop. Init phases ignore it.
	Rotation Rotation
}

// ActiveOn reports whether the phase executes on the given main-loop
// iteration under its rotation schedule.
func (ph *Phase) ActiveOn(iter int) bool {
	rt := ph.Rotation
	if rt.Count <= 1 {
		return true
	}
	every := rt.Every
	if every <= 0 {
		every = 1
	}
	return (iter/every)%rt.Count == rt.Slot
}

// Workload is a complete synthetic application: Table I metadata, the
// object set, and the phase structure of its main loop.
type Workload struct {
	Name        string
	Program     string // binary name, e.g. "hpcg"
	Language    string
	Parallelism string
	LinesOfCode int
	Ranks       int
	Threads     int // threads per rank

	// FOM definition: FOM = WorkPerIteration * Iterations / seconds.
	FOMName string
	FOMUnit string
	// WorkPerIteration in FOM units (e.g. GFLOP per iteration).
	WorkPerIteration float64

	Iterations int
	InitPhases []Phase
	IterPhases []Phase
	Objects    []ObjectSpec

	// StaticBytes / StackBytes are additional unnamed static and stack
	// footprint (beyond Static/Stack objects), for numactl capacity
	// accounting.
	StaticBytes int64
	StackBytes  int64

	// AllocStatements is Table I's "m/r/f/n/d/a/D" census string.
	AllocStatements string
}

// Validate checks internal consistency of a workload definition.
func (w *Workload) Validate() error {
	if w.Name == "" || w.Program == "" {
		return fmt.Errorf("engine: workload needs Name and Program")
	}
	if w.Iterations <= 0 {
		return fmt.Errorf("engine: %s: Iterations must be positive", w.Name)
	}
	if w.WorkPerIteration <= 0 {
		return fmt.Errorf("engine: %s: WorkPerIteration must be positive", w.Name)
	}
	byName := make(map[string]*ObjectSpec, len(w.Objects))
	for i := range w.Objects {
		o := &w.Objects[i]
		if o.Name == "" {
			return fmt.Errorf("engine: %s: object %d has no name", w.Name, i)
		}
		if _, dup := byName[o.Name]; dup {
			return fmt.Errorf("engine: %s: duplicate object %q", w.Name, o.Name)
		}
		if o.Size <= 0 {
			return fmt.Errorf("engine: %s: object %q size must be positive", w.Name, o.Name)
		}
		if o.Class == Dynamic && len(o.SitePath) == 0 {
			return fmt.Errorf("engine: %s: dynamic object %q needs a SitePath", w.Name, o.Name)
		}
		if o.Class != Dynamic && o.Lifetime == LifetimeIteration {
			return fmt.Errorf("engine: %s: non-dynamic object %q cannot have iteration lifetime", w.Name, o.Name)
		}
		if o.ReallocTo != 0 && (o.ReallocTo <= o.Size || o.Class != Dynamic || o.Lifetime != LifetimeProgram) {
			return fmt.Errorf("engine: %s: object %q has invalid ReallocTo", w.Name, o.Name)
		}
		if o.ChurnPhase != 0 {
			if o.Lifetime != LifetimeIteration {
				return fmt.Errorf("engine: %s: object %q: ChurnPhase requires iteration lifetime", w.Name, o.Name)
			}
			if o.ChurnPhase < 0 || o.ChurnPhase > len(w.IterPhases) {
				return fmt.Errorf("engine: %s: object %q: ChurnPhase %d out of range", w.Name, o.Name, o.ChurnPhase)
			}
		}
		byName[o.Name] = o
	}
	check := func(phs []Phase, where string) error {
		for _, ph := range phs {
			if ph.Routine == "" {
				return fmt.Errorf("engine: %s: %s phase without routine name", w.Name, where)
			}
			if rt := ph.Rotation; rt.Count > 1 {
				if rt.Slot < 0 || rt.Slot >= rt.Count {
					return fmt.Errorf("engine: %s: phase %s rotation slot %d out of range [0,%d)", w.Name, ph.Routine, rt.Slot, rt.Count)
				}
				if rt.Every < 0 {
					return fmt.Errorf("engine: %s: phase %s negative rotation period", w.Name, ph.Routine)
				}
			}
			for _, tc := range ph.Touches {
				if _, ok := byName[tc.Object]; !ok {
					return fmt.Errorf("engine: %s: phase %s touches unknown object %q", w.Name, ph.Routine, tc.Object)
				}
				if tc.Refs < 0 {
					return fmt.Errorf("engine: %s: phase %s negative refs", w.Name, ph.Routine)
				}
				if tc.HotFraction < 0 || tc.HotFraction > 1 {
					return fmt.Errorf("engine: %s: phase %s hot fraction out of range", w.Name, ph.Routine)
				}
			}
		}
		return nil
	}
	if err := check(w.InitPhases, "init"); err != nil {
		return err
	}
	return check(w.IterPhases, "iter")
}

// DynamicFootprint sums the sizes of all dynamic objects.
func (w *Workload) DynamicFootprint() int64 {
	var s int64
	for _, o := range w.Objects {
		if o.Class == Dynamic {
			s += o.Size
		}
	}
	return s
}

// StaticFootprint sums static objects plus StaticBytes.
func (w *Workload) StaticFootprint() int64 {
	s := w.StaticBytes
	for _, o := range w.Objects {
		if o.Class == Static {
			s += o.Size
		}
	}
	return s
}

// StackFootprint sums stack objects plus StackBytes.
func (w *Workload) StackFootprint() int64 {
	s := w.StackBytes
	for _, o := range w.Objects {
		if o.Class == Stack {
			s += o.Size
		}
	}
	return s
}

// FOM computes the figure of merit for a run of the workload that took
// the given number of seconds.
func (w *Workload) FOM(seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return w.WorkPerIteration * float64(w.Iterations) / seconds
}

// cyclesForInstructions converts an instruction count to compute
// cycles on cores cores. KNL cores are modeled dual-issue (IPC 2).
func cyclesForInstructions(instrs int64, cores int) units.Cycles {
	if cores <= 0 {
		cores = 1
	}
	const ipc = 2.0
	return units.Cycles(float64(instrs) / (ipc * float64(cores)))
}
