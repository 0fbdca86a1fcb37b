package interpose

import (
	"testing"

	"repro/internal/advisor"
	"repro/internal/alloc"
	"repro/internal/callstack"
	"repro/internal/mem"
	"repro/internal/units"
	"repro/internal/xrand"
)

// hotLibrary builds a library with one selected site, mirroring the
// production configuration of a framework run.
func hotLibrary(t testing.TB) (*Library, callstack.Stack) {
	t.Helper()
	pt := mem.NewPageTable(mem.TierDDR)
	sp := alloc.NewSpace(pt)
	mk, err := alloc.NewMemkind(sp, 64*units.GB, 16*units.GB)
	if err != nil {
		t.Fatal(err)
	}
	prog := callstack.NewProgram("hot", xrand.New(1))
	site := prog.Site("main", "compute", "allocHot")
	rep := &advisor.Report{
		App: "hot", Budget: 16 * units.GB,
		Entries: []advisor.Entry{{
			Tier: "MCDRAM", ID: string(prog.Table.Translate(site)),
			Site: prog.Table.Translate(site), Size: 64 * units.KB, Misses: 100,
		}},
		LBSize: 64 * units.KB, UBSize: 64 * units.KB,
	}
	lib, err := New(mk, prog, rep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return lib, site
}

// TestCachedMallocFreeZeroAllocs pins the steady-state interposed
// allocation path: once the decision cache holds the site, a
// Malloc/Free pair — size gate, unwind, cache hit, fallback-chain
// walk, arena carve, ownership bookkeeping, release — performs no Go
// allocation. The engine calls this pair for every churn object of
// every iteration, so any allocation here multiplies across whole
// sweeps.
func TestCachedMallocFreeZeroAllocs(t *testing.T) {
	lib, site := hotLibrary(t)
	// Warm the decision cache and the arenas' free lists.
	for i := 0; i < 16; i++ {
		addr, err := lib.Malloc(site, 64*units.KB)
		if err != nil {
			t.Fatal(err)
		}
		if err := lib.Free(addr); err != nil {
			t.Fatal(err)
		}
	}
	before := lib.stats
	allocs := testing.AllocsPerRun(10000, func() {
		addr, err := lib.Malloc(site, 64*units.KB)
		if err != nil {
			t.Fatal(err)
		}
		if err := lib.Free(addr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cached Malloc/Free allocates %.1f times per pair, want 0", allocs)
	}
	after := lib.stats
	if after.cacheHits <= before.cacheHits || after.translates != before.translates {
		t.Errorf("guard did not stay on the cached path: before %+v after %+v", before, after)
	}
	// The unmatched path (size-filtered) must be allocation-free too:
	// it is every allocation of every NON-selected site.
	allocs = testing.AllocsPerRun(10000, func() {
		addr, err := lib.Malloc(site, 4*units.KB) // outside [64K, 64K]
		if err != nil {
			t.Fatal(err)
		}
		if err := lib.Free(addr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("size-filtered Malloc/Free allocates %.1f times per pair, want 0", allocs)
	}
}
