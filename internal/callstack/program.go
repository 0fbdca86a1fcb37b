package callstack

import (
	"repro/internal/xrand"
)

// Program models one application binary for call-site purposes: a main
// module plus libc, and a stable mapping from source-level function
// names to symbols. Workloads use it to fabricate the call stacks of
// their allocation sites; recreating the Program with a different RNG
// yields a new ASLR layout (new raw addresses) whose translated Keys
// are unchanged — the exact property the framework's translation stage
// relies on between the profiling and production runs.
type Program struct {
	Table *Table
	Main  *Module
	Libc  *Module

	funcSym map[string]int // function name -> symbol index in Main
}

// NewProgram loads the binary name and libc with ASLR biases drawn
// from rng.
func NewProgram(name string, rng *xrand.RNG) *Program {
	t := NewTable()
	main := t.AddModule(name, 5000, rng)
	libc := t.AddModule("libc.so", 3000, rng)
	return &Program{Table: t, Main: main, Libc: libc, funcSym: make(map[string]int)}
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// symbolFor deterministically assigns a distinct Main-module symbol to
// each function name (open addressing on the name hash, so the mapping
// is identical across runs) and names the symbol after the function,
// as the linker would — translated keys therefore contain the
// source-level function names the advisor report matches on.
func (p *Program) symbolFor(fn string) Symbol {
	if idx, ok := p.funcSym[fn]; ok {
		return p.Main.symbol(idx)
	}
	n := len(p.Main.starts) - 1
	idx := int(hashString(fn) % uint64(n))
	taken := make(map[int]bool, len(p.funcSym))
	for _, i := range p.funcSym {
		taken[i] = true
	}
	for taken[idx] {
		idx = (idx + 1) % n
	}
	p.funcSym[fn] = idx
	p.Main.setName(idx, fn)
	return p.Main.symbol(idx)
}

// Site fabricates the runtime call stack for an allocation reached via
// path (outermost caller first, e.g. "main", "Setup", "allocMatrix").
// The innermost frame of the returned Stack is the direct caller of
// malloc. Calling Site twice with the same path — as a loop over an
// allocation statement does — returns identical stacks, which is why
// the paper keys objects by call stack and why inlined code that
// merges sites confuses the matcher.
func (p *Program) Site(path ...string) Stack {
	if len(path) == 0 {
		return nil
	}
	s := make(Stack, 0, len(path))
	// Innermost first: reverse the path.
	for i := len(path) - 1; i >= 0; i-- {
		sym := p.symbolFor(path[i])
		// A stable intra-function call-site offset derived from the
		// whole path, so different paths through the same function get
		// different return addresses.
		off := hashString(path[i]+"|"+path[0]) % uint64(sym.Size)
		s = append(s, p.Main.Runtime(sym.Addr+off))
	}
	return s
}
