// Package callstack simulates the pieces of the process runtime the
// interposition library depends on: modules loaded at ASLR-randomized
// bases, their symbol tables, call-stack unwinding (glibc backtrace)
// and call-stack translation back to link-time symbols (binutils).
//
// Two properties matter for the reproduction:
//
//  1. Raw return addresses differ between the profiling run and the
//     production run because of ASLR, so the interposer must translate
//     every unwound stack before matching it against the advisor
//     report — Section III, Algorithm 1, line 7.
//  2. Unwinding has a high fixed cost while translation has a higher
//     per-frame cost, so translation overtakes unwinding for stacks
//     deeper than ~6 frames (Figure 3). The package both models those
//     costs in simulated cycles and performs real lookup work whose
//     wall-clock time the Figure 3 benchmark measures.
package callstack

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/units"
	"repro/internal/xrand"
)

// Stack is a call stack of runtime return addresses, innermost frame
// first (the allocation call site is frame 0).
type Stack []uint64

// Fingerprint returns a cheap comparable identity for the raw stack,
// used as the key of the interposer's decision cache (Algorithm 1,
// lines 5 and 9). Two stacks with equal frames share a fingerprint.
func (s Stack) Fingerprint() uint64 {
	// FNV-1a over the frame addresses.
	h := uint64(1469598103934665603)
	for _, a := range s {
		for i := 0; i < 8; i++ {
			h ^= (a >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// Key is a canonical, ASLR-independent call-stack identity:
// "module!symbol+off" frames joined by ';'. Profiling and production
// runs of the same binary produce identical Keys for the same source
// location even though their Stacks differ.
type Key string

// Symbol is one entry of a module's symbol table.
type Symbol struct {
	Name string
	Addr uint64 // link-time address within the module
	Size int64
}

// Module is a loaded executable or shared library.
//
// Its symbols are contiguous from link address 0x1000, so the table is
// one uint32 start address per symbol plus the end of the last:
// symbol i covers [starts[i], starts[i+1]). A run names only a handful
// of them, so names are a sparse map filled on first lookup.
type Module struct {
	Name   string
	Size   int64
	Bias   uint64         // runtime load bias (ASLR); runtime = link + bias
	starts []uint32       // nsyms+1 link addresses, ascending
	names  map[int]string // symbol index -> name, once looked up or bound
	stem   string         // Name without ".so": the synthetic symbol prefix
}

// symbol returns symbol i with its name so far ("" until looked up).
func (m *Module) symbol(i int) Symbol {
	return Symbol{Name: m.names[i], Addr: uint64(m.starts[i]), Size: int64(m.starts[i+1] - m.starts[i])}
}

// setName names symbol i.
func (m *Module) setName(i int, name string) {
	if m.names == nil {
		m.names = make(map[int]string)
	}
	m.names[i] = name
}

// SymbolFor returns the symbol covering the link-time address, if any.
// A run resolves only a handful of its thousands of synthetic symbols,
// so each gets its "stem::fnNNNN" name here, on first lookup, instead
// of at load time. The name is stored in the module, so a Module (like
// the Program that owns it, one per simulated run) is not safe for
// concurrent use.
func (m *Module) SymbolFor(link uint64) (Symbol, bool) {
	n := len(m.starts) - 1
	i := sort.Search(n, func(i int) bool { return uint64(m.starts[i]) > link }) - 1
	if i < 0 || link >= uint64(m.starts[n]) {
		return Symbol{}, false
	}
	sym := m.symbol(i)
	if sym.Name == "" {
		sym.Name = fmt.Sprintf("%s::fn%04d", m.stem, i)
		m.setName(i, sym.Name)
	}
	return sym, true
}

// Table is the per-process module map: it knows every loaded module,
// its ASLR bias for this run, and how to translate runtime addresses.
type Table struct {
	modules []*Module // sorted by runtime base (Bias)
}

// NewTable returns an empty module table.
func NewTable() *Table { return &Table{} }

// AddModule loads a module with nsyms synthetic symbols and an
// ASLR bias drawn from rng. Symbol layout (link-time) is deterministic
// given the name, so two runs of the same binary have identical symbol
// tables but different biases — exactly the ASLR situation the paper's
// translation step exists to undo.
func (t *Table) AddModule(name string, nsyms int, rng *xrand.RNG) *Module {
	if nsyms < 1 {
		nsyms = 1
	}
	// Deterministic link-time layout seeded by the module name.
	var seed uint64
	for _, c := range name {
		seed = seed*131 + uint64(c)
	}
	layout := xrand.New(seed)
	starts := make([]uint32, nsyms+1)
	addr := uint64(0x1000)
	for i := 0; i < nsyms; i++ {
		starts[i] = uint32(addr)
		addr += 64 + layout.Uint64n(2048)
	}
	if addr > math.MaxUint32 {
		panic("callstack: module over the 4 GB a uint32 symbol table holds")
	}
	starts[nsyms] = uint32(addr)
	// Runtime bias: page-aligned, keeps modules disjoint by spacing
	// them 1 TiB apart plus a random page offset.
	bias := (uint64(len(t.modules)+1) << 40) + (rng.Uint64n(1<<20))*uint64(units.PageSize)
	m := &Module{Name: name, Size: int64(addr), Bias: bias, starts: starts, stem: strings.TrimSuffix(name, ".so")}
	t.modules = append(t.modules, m)
	sort.Slice(t.modules, func(i, j int) bool { return t.modules[i].Bias < t.modules[j].Bias })
	return m
}

// ModuleFor returns the module containing the runtime address.
func (t *Table) ModuleFor(runtime uint64) (*Module, bool) {
	i := sort.Search(len(t.modules), func(i int) bool { return t.modules[i].Bias > runtime })
	if i == 0 {
		return nil, false
	}
	m := t.modules[i-1]
	if runtime >= m.Bias+uint64(m.Size) {
		return nil, false
	}
	return m, true
}

// Runtime converts a module link-time address to its runtime address
// under this run's ASLR bias.
func (m *Module) Runtime(link uint64) uint64 { return link + m.Bias }

// Translate resolves every frame of a runtime stack to its canonical
// "module!symbol+off" form. Frames that resolve nowhere are rendered as
// raw hex (the "??" of a stripped binary); they still participate in
// the Key so mismatches fail closed.
func (t *Table) Translate(s Stack) Key {
	if len(s) == 0 {
		return ""
	}
	var b strings.Builder
	for i, addr := range s {
		if i > 0 {
			b.WriteByte(';')
		}
		m, ok := t.ModuleFor(addr)
		if !ok {
			fmt.Fprintf(&b, "0x%x", addr)
			continue
		}
		link := addr - m.Bias
		sym, ok := m.SymbolFor(link)
		if !ok {
			fmt.Fprintf(&b, "%s!0x%x", m.Name, link)
			continue
		}
		fmt.Fprintf(&b, "%s!%s+0x%x", m.Name, sym.Name, link-sym.Addr)
	}
	return Key(b.String())
}

// Cost model (Figure 3): microseconds on the Xeon Phi 7250 at 1.40 GHz
// running glibc 2.17 / binutils 2.23. Unwinding pays a large fixed
// setup (libunwind context capture) plus a small per-frame walk;
// translation pays a small setup plus an expensive per-frame symbol
// search, so it overtakes unwinding beyond ~6 frames.
const (
	unwindSetupUS    = 12.0
	unwindPerFrameUS = 1.5
	translateSetupUS = 3.0
	translatePerFrUS = 3.0
)

func usToCycles(us float64) units.Cycles {
	return units.Cycles(us * units.DefaultClockHz / 1e6)
}

// UnwindCost returns the modeled cycles to unwind a stack of depth d.
func UnwindCost(depth int) units.Cycles {
	if depth <= 0 {
		return 0
	}
	return usToCycles(unwindSetupUS + unwindPerFrameUS*float64(depth))
}

// TranslateCost returns the modeled cycles to translate depth frames.
func TranslateCost(depth int) units.Cycles {
	if depth <= 0 {
		return 0
	}
	return usToCycles(translateSetupUS + translatePerFrUS*float64(depth))
}

// CrossoverDepth returns the stack depth beyond which translation
// costs more than unwinding under the model (6 on the paper's setup).
func CrossoverDepth() int {
	d := (unwindSetupUS - translateSetupUS) / (translatePerFrUS - unwindPerFrameUS)
	return int(d)
}
