package alloc

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/units"
)

// newDualSocketMemkind builds the heap set of a two-socket node as the
// engine would for a rank pinned to socket 0: the near DDR default,
// a remote HBM heap whose raw perf (1.6) exceeds DDR but whose
// EFFECTIVE perf (1.6/2.2 ≈ 0.73) does not, and a near NVM floor.
func newDualSocketMemkind(t *testing.T) *Memkind {
	t.Helper()
	mk, err := NewMemkindHierarchy(newTestSpace(), []HeapSpec{
		{Tier: mem.TierSpec{ID: mem.TierDDR, Name: "DDR", RelativePerf: 1.0}, Size: units.MB, Perf: 1.0},
		{Tier: mem.TierSpec{ID: mem.TierHBM, Name: "HBM", RelativePerf: 1.6}, Size: units.MB, Perf: 1.6 / 2.2},
		{Tier: mem.TierSpec{ID: mem.TierNVM, Name: "NVM", RelativePerf: 0.4}, Size: 4 * units.MB, Perf: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return mk
}

// TestFallbackChainIsDistanceOrdered pins the cross-domain spill: with
// effective perf supplied, the chain from the default walks near DDR →
// remote HBM → NVM even though HBM's RAW perf is above DDR's (a raw-
// perf chain would not include HBM below the default at all).
func TestFallbackChainIsDistanceOrdered(t *testing.T) {
	mk := newDualSocketMemkind(t)
	if got := mk.FastestKind(); got != KindDefault {
		t.Fatalf("effective-fastest kind = %v, want the near-DDR default", got)
	}
	chain, err := mk.FallbackChain(KindDefault)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"DDR", "HBM", "NVM"}
	if len(chain) != len(want) {
		t.Fatalf("chain = %v", chain)
	}
	for i, k := range chain {
		if mk.specs[k].Tier.Name != want[i] {
			t.Fatalf("chain[%d] = %s, want %s", i, mk.specs[k].Tier.Name, want[i])
		}
	}

	// A full near-DDR heap spills to remote HBM before the NVM floor.
	var addrs []uint64
	for {
		addr, kind, err := mk.MallocFallback(KindDefault, 256*units.KB)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
		if tier, _ := mk.TierOf(kind); tier != mem.TierDDR {
			if tier != mem.TierHBM {
				t.Fatalf("first spill went to %v, want remote HBM", tier)
			}
			break
		}
		if len(addrs) > 32 {
			t.Fatal("DDR heap never filled")
		}
	}
	for _, a := range addrs {
		if err := mk.Free(a); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHeapSpecPerfDefaultsToRelativePerf: without an explicit Perf the
// ordering is the raw one — the single-domain degeneration.
func TestHeapSpecPerfDefaultsToRelativePerf(t *testing.T) {
	mk, err := NewMemkindHierarchy(newTestSpace(), []HeapSpec{
		{Tier: mem.TierSpec{ID: mem.TierDDR, Name: "DDR", RelativePerf: 1.0}, Size: units.MB},
		{Tier: mem.TierSpec{ID: mem.TierHBM, Name: "HBM", RelativePerf: 1.6}, Size: units.MB},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := mk.specs[mk.FastestKind()].Tier.Name; got != "HBM" {
		t.Fatalf("raw-perf fastest = %s", got)
	}
}
