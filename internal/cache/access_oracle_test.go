package cache

// The per-reference access walk: the reference the batched production
// walk (AccessRun/AccessRandomRun -> accessLine) is compared against.
// The engine never calls it; the tests in this package do.

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/units"
)

// Level identifies where an access was satisfied.
type Level uint8

// Access outcomes, from fastest to slowest.
const (
	LevelL1 Level = iota
	LevelLLC
	LevelMCDRAMCache // cache-mode MCDRAM hit
	LevelMemory      // served by a memory tier (flat mode) or DDR (cache mode miss)
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelLLC:
		return "LLC"
	case LevelMCDRAMCache:
		return "MCDRAM$"
	case LevelMemory:
		return "MEM"
	default:
		return fmt.Sprintf("level(%d)", uint8(l))
	}
}

// Result describes one access walked through the hierarchy.
type Result struct {
	Level Level
	Tier  mem.TierID // meaningful when Level >= LevelMCDRAMCache
}

// Access walks one memory reference of the line containing addr
// through the hierarchy, updating costs and traffic.
func (h *Hierarchy) Access(addr uint64) Result {
	if h.l1.Access(addr) {
		h.hitCycles += h.machine.LLC.L1Hit
		return Result{Level: LevelL1}
	}
	if h.llc.Access(addr) {
		h.hitCycles += h.machine.LLC.HitCycles
		return Result{Level: LevelLLC}
	}
	if h.missDue--; h.missDue == 0 {
		h.missDue = h.onLLCMiss(addr, 0)
	}
	line := h.machine.LineSize
	if h.mcCache != nil {
		// Cache mode: MCDRAM fronts DDR for all data.
		if h.mcCache.Access(addr) {
			h.traffic.Add(mem.TierMCDRAM, line)
			return Result{Level: LevelMCDRAMCache, Tier: mem.TierMCDRAM}
		}
		// Miss: the demand line crosses DDR, plus a quarter line of
		// average fill/writeback overhead (a cache-mode miss moves
		// data DDR->MCDRAM and evicts a possibly dirty victim, so its
		// effective DDR cost exceeds a flat-mode access — the reason
		// cache mode loses to conscious flat placement in the paper).
		// The fill write also consumes MCDRAM bandwidth. The exact
		// charge — line + line/4 on DDR, line on MCDRAM — is pinned by
		// TestCacheModeMissCharge.
		h.traffic.Add(mem.TierDDR, line)
		h.traffic.Add(mem.TierDDR, line/4)
		h.traffic.Add(mem.TierMCDRAM, line)
		return Result{Level: LevelMemory, Tier: mem.TierDDR}
	}
	if h.runLines > 0 && addr >= h.runStart && addr < h.runEnd && h.runGen == h.pt.Gen() {
		h.runLines++
		return Result{Level: LevelMemory, Tier: h.runTier}
	}
	h.flushRun()
	// The per-reference path keeps the original page-granular run: the
	// containing page is the cheapest always-correct constant-tier
	// extent (overrides are page-granular and coarse ranges only break
	// pages at their byte-granular edges, which TierOf resolves per
	// address anyway). The batched paths install wider TierExtent runs
	// in the same cache; both validate by bounds+Gen, so they compose.
	tier := h.pt.TierOf(addr)
	start := addr / uint64(units.PageSize) * uint64(units.PageSize)
	h.runStart, h.runEnd = start, start+uint64(units.PageSize)
	h.runGen, h.runTier, h.runLines = h.pt.Gen(), tier, 1
	return Result{Level: LevelMemory, Tier: tier}
}
