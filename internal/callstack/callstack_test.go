package callstack

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestModuleSymbolLookup(t *testing.T) {
	tb := NewTable()
	m := tb.AddModule("a.out", 100, xrand.New(1))
	sym := m.symbol(10)
	got, ok := m.SymbolFor(sym.Addr)
	if !ok || got.Name != "a.out::fn0010" {
		t.Fatalf("SymbolFor(start) = %v/%v", got, ok)
	}
	got, ok = m.SymbolFor(sym.Addr + uint64(sym.Size) - 1)
	if !ok || got.Name != "a.out::fn0010" {
		t.Fatal("SymbolFor(last byte) failed")
	}
	if _, ok := m.SymbolFor(0); ok {
		t.Fatal("address before first symbol resolved")
	}
}

func TestTableModuleFor(t *testing.T) {
	tb := NewTable()
	r := xrand.New(2)
	a := tb.AddModule("a.out", 50, r)
	b := tb.AddModule("libc.so", 50, r)
	if m, ok := tb.ModuleFor(a.Bias + 0x1000); !ok || m.Name != "a.out" {
		t.Fatal("ModuleFor main failed")
	}
	if m, ok := tb.ModuleFor(b.Bias + 0x1000); !ok || m.Name != "libc.so" {
		t.Fatal("ModuleFor libc failed")
	}
	if _, ok := tb.ModuleFor(5); ok {
		t.Fatal("low address resolved to a module")
	}
	if _, ok := tb.ModuleFor(a.Bias + uint64(a.Size) + 10); ok {
		t.Fatal("gap address resolved to a module")
	}
}

func TestTranslateASLRIndependence(t *testing.T) {
	// Two "runs" of the same program with different ASLR seeds.
	p1 := NewProgram("hpcg", xrand.New(100))
	p2 := NewProgram("hpcg", xrand.New(999))
	path := []string{"main", "GenerateProblem", "allocMatrix"}
	s1, s2 := p1.Site(path...), p2.Site(path...)
	// Raw stacks must differ (ASLR) ...
	same := true
	for i := range s1 {
		if s1[i] != s2[i] {
			same = false
		}
	}
	if same {
		t.Fatal("ASLR produced identical runtime stacks across runs")
	}
	// ... but translated keys must match.
	k1, k2 := p1.Table.Translate(s1), p2.Table.Translate(s2)
	if k1 != k2 {
		t.Fatalf("translated keys differ:\n%s\n%s", k1, k2)
	}
	if frames := strings.Split(string(k1), ";"); len(frames) != 3 {
		t.Fatalf("key has %d frames, want 3: %s", len(frames), k1)
	}
}

func TestTranslateDistinguishesSites(t *testing.T) {
	p := NewProgram("app", xrand.New(7))
	k1 := p.Key("main", "phaseA", "alloc")
	k2 := p.Key("main", "phaseB", "alloc")
	if k1 == k2 {
		t.Fatal("different paths produced the same key")
	}
	// Same path twice: identical (loop over an allocation statement).
	if p.Key("main", "phaseA", "alloc") != k1 {
		t.Fatal("same path translated differently on second call")
	}
}

func TestTranslateUnknownAddressFailsClosed(t *testing.T) {
	tb := NewTable()
	tb.AddModule("a.out", 10, xrand.New(3))
	k := tb.Translate(Stack{0x5})
	if !strings.HasPrefix(string(k), "0x") {
		t.Fatalf("unknown frame rendered as %q, want raw hex", k)
	}
	if tb.Translate(nil) != "" {
		t.Fatal("empty stack should translate to empty key")
	}
}

func TestFingerprint(t *testing.T) {
	s1 := Stack{1, 2, 3}
	s2 := Stack{1, 2, 3}
	s3 := Stack{3, 2, 1}
	if s1.Fingerprint() != s2.Fingerprint() {
		t.Fatal("equal stacks have different fingerprints")
	}
	if s1.Fingerprint() == s3.Fingerprint() {
		t.Fatal("reordered stack collides (FNV should distinguish)")
	}
}

func TestFingerprintPropertyStable(t *testing.T) {
	f := func(frames []uint64) bool {
		s := Stack(frames)
		return s.Fingerprint() == s.Fingerprint()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelCrossover(t *testing.T) {
	// Figure 3: unwind dominates shallow stacks; translate overtakes
	// beyond ~6 frames.
	if UnwindCost(1) <= TranslateCost(1) {
		t.Fatal("depth 1: unwind should cost more than translate")
	}
	if UnwindCost(9) >= TranslateCost(9) {
		t.Fatal("depth 9: translate should cost more than unwind")
	}
	if d := CrossoverDepth(); d != 6 {
		t.Fatalf("crossover depth = %d, want 6", d)
	}
	if UnwindCost(0) != 0 || TranslateCost(-1) != 0 {
		t.Fatal("non-positive depth should cost 0")
	}
	// Monotonicity.
	for d := 1; d < 20; d++ {
		if UnwindCost(d+1) <= UnwindCost(d) || TranslateCost(d+1) <= TranslateCost(d) {
			t.Fatalf("cost model not monotonic at depth %d", d)
		}
	}
}

func TestProgramSiteInnermostFirst(t *testing.T) {
	p := NewProgram("app", xrand.New(5))
	s := p.Site("main", "leaf")
	k := p.Table.Translate(s)
	frames := strings.Split(string(k), ";")
	if len(frames) != 2 {
		t.Fatalf("frames = %v", frames)
	}
	// Frame 0 must be the innermost (leaf) and carry its source name.
	if !strings.Contains(frames[0], "leaf") {
		t.Fatalf("innermost frame = %q, want the leaf function", frames[0])
	}
	if !strings.Contains(frames[1], "main") {
		t.Fatalf("outermost frame = %q, want main", frames[1])
	}
	if p.Site() != nil {
		t.Fatal("empty path should give nil stack")
	}
}

func TestDistinctFunctionsDistinctSymbols(t *testing.T) {
	p := NewProgram("app", xrand.New(11))
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	seen := map[string]bool{}
	for _, n := range names {
		sym := p.symbolFor(n)
		if seen[sym.Name] {
			t.Fatalf("symbol %s reused for %s", sym.Name, n)
		}
		seen[sym.Name] = true
	}
}

func BenchmarkUnwind(b *testing.B) {
	// Real work proxy: copying the frame slice, as backtrace() copies
	// return addresses out of the stack.
	p := NewProgram("bench", xrand.New(1))
	s := p.Site("m", "a", "b", "c", "d", "e", "f", "g", "h")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := make(Stack, len(s))
		copy(dst, s)
	}
}

func BenchmarkTranslate(b *testing.B) {
	p := NewProgram("bench", xrand.New(1))
	s := p.Site("m", "a", "b", "c", "d", "e", "f", "g", "h")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Table.Translate(s)
	}
}

// Key translates a site path directly, without a concrete run.
func (p *Program) Key(path ...string) Key {
	return p.Table.Translate(p.Site(path...))
}

// TestKeyDepth: a translated key holds one ';'-separated frame per
// stack frame, and an empty stack translates to the empty key.
func TestKeyDepth(t *testing.T) {
	p := NewProgram("app", xrand.New(3))
	if k := p.Table.Translate(nil); k != "" {
		t.Fatalf("empty stack translated to %q", k)
	}
	path := []string{"main", "solve", "alloc"}
	for n := 1; n <= len(path); n++ {
		k := p.Table.Translate(p.Site(path[:n]...))
		if frames := strings.Count(string(k), ";") + 1; frames != n {
			t.Fatalf("depth-%d stack translated to %d frames: %s", n, frames, k)
		}
	}
}
