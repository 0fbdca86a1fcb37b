package mem

import (
	"encoding/binary"
	"testing"

	"repro/internal/units"
)

// FuzzPageTableVsMap differentially fuzzes the radix PageTable (the
// simulator's hottest structure: two-level per-page radix + sorted
// coarse ranges + last-hit cache) against a plain map reference model
// implementing the documented semantics directly. The fuzzer input is
// a byte-coded op program: SetRange (to a tier or back to the default
// tier) / SetCoarseRange with bounded addresses, checked after every op
// by probing TierOf around the op's boundaries and by comparing
// override counts and PlacedBytes.
//
// The seed corpus lives under testdata/fuzz/FuzzPageTableVsMap; CI
// runs a -fuzztime smoke on top of the seeds.

const (
	fuzzAddrSpace = uint64(1) << 28 // 256 MB of simulated address space
	fuzzMaxSize   = int64(1) << 20  // ≤ 1 MB (256 pages) per range op
	fuzzOpLen     = 10              // op byte + tier byte + 2×uint32
	fuzzMaxOps    = 128             // bounds the O(ops × pages × coarse) model cost
)

// ptModel is the reference model: the PageTable's documented semantics
// with none of its structure — a page-override map plus a list of
// accepted coarse ranges.
type ptModel struct {
	def    TierID
	pages  map[uint64]TierID
	coarse []coarseRange
}

func newPTModel(def TierID) *ptModel {
	return &ptModel{def: def, pages: make(map[uint64]TierID)}
}

func (m *ptModel) setCoarse(addr uint64, size int64, tier TierID) bool {
	if size <= 0 {
		return false
	}
	end := addr + uint64(size)
	for i := range m.coarse {
		c := &m.coarse[i]
		if addr == c.start && end == c.end {
			c.tier = tier
			return true
		}
		if addr < c.end && c.start < end {
			return false
		}
	}
	m.coarse = append(m.coarse, coarseRange{start: addr, end: end, tier: tier})
	return true
}

func (m *ptModel) inCoarse(addr uint64) (TierID, bool) {
	for _, c := range m.coarse {
		if addr >= c.start && addr < c.end {
			return c.tier, true
		}
	}
	return 0, false
}

func (m *ptModel) setRange(addr uint64, size int64, tier TierID) {
	if size <= 0 {
		return
	}
	first := addr / uint64(units.PageSize)
	last := (addr + uint64(size) - 1) / uint64(units.PageSize)
	for p := first; p <= last; p++ {
		if tier != m.def {
			m.pages[p] = tier
			continue
		}
		// Returning to the default: pages whose first byte a coarse
		// range covers keep an explicit default override (shadowing the
		// coarse tier); uncovered pages drop their entry.
		if _, ok := m.inCoarse(p * uint64(units.PageSize)); ok {
			m.pages[p] = m.def
		} else {
			delete(m.pages, p)
		}
	}
}

func (m *ptModel) tierOf(addr uint64) TierID {
	if t, ok := m.pages[addr/uint64(units.PageSize)]; ok {
		return t
	}
	if t, ok := m.inCoarse(addr); ok {
		return t
	}
	return m.def
}

func (m *ptModel) placedBytes() map[TierID]int64 {
	out := make(map[TierID]int64)
	for _, t := range m.pages {
		out[t] += units.PageSize
	}
	return out
}

// probeAgainstModel compares TierOf at the given probe addresses, then
// validates the TierExtent contract at each: the extent must contain
// the probe, report its tier, and hold a constant model tier across
// its whole width (sampled at the ends, the midpoint, and the abutting
// page boundaries — the places an off-by-one run scan would break).
func probeAgainstModel(t *testing.T, pt *PageTable, m *ptModel, probes []uint64) {
	t.Helper()
	for _, a := range probes {
		if a >= fuzzAddrSpace+uint64(fuzzMaxSize) {
			continue
		}
		want := m.tierOf(a)
		if got := pt.TierOf(a); got != want {
			t.Fatalf("TierOf(%#x) = %d, model says %d", a, got, want)
		}
		tier, start, end := pt.TierExtent(a)
		if tier != want {
			t.Fatalf("TierExtent(%#x) tier = %d, model says %d", a, tier, want)
		}
		if a < start || a >= end {
			t.Fatalf("TierExtent(%#x) = [%#x, %#x): probe outside extent", a, start, end)
		}
		inner := []uint64{start, a, start + (end-start)/2}
		if end != ^uint64(0) {
			inner = append(inner, end-1)
		}
		if pg := (a &^ uint64(units.PageSize-1)) + uint64(units.PageSize); pg < end {
			inner = append(inner, pg-1, pg)
		}
		for _, x := range inner {
			if got := m.tierOf(x); got != tier {
				t.Fatalf("TierExtent(%#x) = [%#x, %#x) tier %d, but model tier at %#x is %d",
					a, start, end, tier, x, got)
			}
		}
	}
}

// checkStructure compares the bookkeeping invariants: live override
// count and per-tier placed bytes. O(overrides), so it runs once per
// program, not per op.
func checkStructure(t *testing.T, pt *PageTable, m *ptModel) {
	t.Helper()
	if pt.entries != int64(len(m.pages)) {
		t.Fatalf("entries = %d, model has %d overrides", pt.entries, len(m.pages))
	}
	got, want := pt.PlacedBytes(), m.placedBytes()
	if len(got) != len(want) {
		t.Fatalf("PlacedBytes = %v, model %v", got, want)
	}
	for tier, b := range want {
		if got[tier] != b {
			t.Fatalf("PlacedBytes[%d] = %d, model %d", tier, got[tier], b)
		}
	}
}

func FuzzPageTableVsMap(f *testing.F) {
	op := func(kind, tier byte, addr uint32, size uint32) []byte {
		buf := []byte{kind, tier, 0, 0, 0, 0, 0, 0, 0, 0}
		binary.LittleEndian.PutUint32(buf[2:6], addr)
		binary.LittleEndian.PutUint32(buf[6:10], size)
		return buf
	}
	cat := func(def byte, ops ...[]byte) []byte {
		out := []byte{def}
		for _, o := range ops {
			out = append(out, o...)
		}
		return out
	}
	// Fine overrides, clears across page boundaries.
	f.Add(cat(0,
		op(0, 1, 0x1000, 0x5000),
		op(0, 2, 0x3800, 0x1000),
		op(1, 0, 0x2000, 0x2001),
	))
	// Coarse range shadowed back to default page by page.
	f.Add(cat(0,
		op(2, 2, 0x10000, 0x8000),
		op(0, 0, 0x11000, 0x3000),
		op(0, 3, 0x13000, 0x800),
	))
	// Overlapping coarse rejection + identical-range rebind.
	f.Add(cat(1,
		op(2, 2, 0x4000, 0x4000),
		op(2, 3, 0x6000, 0x4000),
		op(2, 3, 0x4000, 0x4000),
		op(1, 0, 0x4000, 0x1000),
	))

	f.Fuzz(runPageTableFuzzProgram)
}

// runPageTableFuzzProgram is the fuzz target body, named so regression
// tests can drive it with hand-built programs.
func runPageTableFuzzProgram(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	def := TierID(data[0] % 4)
	pt := NewPageTable(def)
	model := newPTModel(def)
	probes := []uint64{0, uint64(units.PageSize) - 1, fuzzAddrSpace - 1}
	ops := 0
	for i := 1; i+fuzzOpLen <= len(data) && ops < fuzzMaxOps; i, ops = i+fuzzOpLen, ops+1 {
		kind := data[i] % 3
		tier := TierID(data[i+1] % 4)
		addr := uint64(binary.LittleEndian.Uint32(data[i+2:i+6])) % fuzzAddrSpace
		size := int64(binary.LittleEndian.Uint32(data[i+6:i+10])) % fuzzMaxSize
		switch kind {
		case 0:
			pt.SetRange(addr, size, tier)
			model.setRange(addr, size, tier)
		case 1:
			pt.SetRange(addr, size, pt.def)
			model.setRange(addr, size, def)
		case 2:
			err := pt.SetCoarseRange(addr, size, tier)
			if ok := model.setCoarse(addr, size, tier); ok == (err != nil) {
				t.Fatalf("SetCoarseRange(%#x, %d) err=%v, model accept=%v", addr, size, err, ok)
			}
		}
		end := addr + uint64(max(size, 1))
		probeAgainstModel(t, pt, model, []uint64{addr, end - 1, end,
			addr &^ uint64(units.PageSize-1), end &^ uint64(units.PageSize-1)})
		if len(probes) < 256 {
			probes = append(probes, addr, end)
		}
	}
	checkStructure(t, pt, model)
	// Final sweep over every boundary the program touched, shifted by
	// ±1 and ±PageSize to catch off-by-one and off-by-a-page.
	var final []uint64
	for _, p := range probes {
		final = append(final, p, p+1, p+uint64(units.PageSize))
		if p > 0 {
			final = append(final, p-1)
		}
		if p >= uint64(units.PageSize) {
			final = append(final, p-uint64(units.PageSize))
		}
	}
	probeAgainstModel(t, pt, model, final)
}
