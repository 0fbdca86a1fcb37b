package advisor

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/callstack"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/units"
)

// TierConfig describes one memory tier for the advisor, mirroring the
// paper's hmem_advisor configuration file (size + relative
// performance).
type TierConfig struct {
	Name         string
	Capacity     int64
	RelativePerf float64

	// Distance is the NUMA distance the packing rank pays to reach the
	// tier (1.0 = local; 0 means unspecified and is treated as local).
	// The waterfall orders tiers by RelativePerf/Distance — the
	// effective performance from the accessing domain — so a remote
	// fast tier packs BELOW near DDR when the hop costs more than the
	// tier's raw advantage buys, and near instances of equally-fast
	// tiers fill first. FromMachine derives it from the machine's
	// distance matrix; uniform machines leave it at local and the
	// packing order is byte-identical to the flat advisor.
	Distance float64
}

// effectivePerf is the tier's performance from the accessing domain.
func (t TierConfig) effectivePerf() float64 {
	if t.Distance > 0 {
		return t.RelativePerf / t.Distance
	}
	return t.RelativePerf
}

// MemoryConfig is the machine description the advisor packs against:
// an ordered hierarchy of tiers plus the name of the tier plain malloc
// is backed by.
type MemoryConfig struct {
	Tiers []TierConfig
	// DefaultTier names the tier untargeted allocations land on (the
	// OS default). Objects the waterfall assigns to it get no report
	// entry — they need no interposition. Empty selects the slowest
	// tier, which reproduces the paper's two-tier advisor exactly; on
	// machines with tiers *slower* than the default (DDR+NVM), naming
	// the default makes the waterfall emit explicit entries for the
	// cold objects it banishes below it.
	DefaultTier string
}

// TwoTier returns the common DDR+MCDRAM configuration with the given
// fast-tier budget (the paper sweeps 32–256 MB per rank).
func TwoTier(fastBudget int64) MemoryConfig {
	return MemoryConfig{Tiers: []TierConfig{
		{Name: "MCDRAM", Capacity: fastBudget, RelativePerf: 4.8},
		{Name: "DDR", Capacity: 96 * units.GB, RelativePerf: 1.0},
	}}
}

// FromMachine derives the advisor configuration from a simulated
// machine: every tier with its capacity, relative performance and NUMA
// distance from the machine's home domain, the machine's default tier
// as the advisor default, and — when fastBudget is positive — the
// budget the paper sweeps replacing the capacity of the effectively-
// fastest NON-DEFAULT tier (the tier promotions are bound to; budgets
// never clamp the default tier, which plain malloc must keep filling).
// On multi-domain machines the tiers arrive in near-hierarchy order,
// so the budget lands on the tier the pinned rank actually promotes
// into — which on a DualSocketHBM-style node (default DDR effectively
// fastest) is the remote HBM overflow tier, not DDR.
func FromMachine(m *mem.Machine, fastBudget int64) MemoryConfig {
	hier := m.NearHierarchy()
	def := m.DefaultTier().Name
	mc := MemoryConfig{DefaultTier: def}
	budgeted := false
	for _, t := range hier {
		cap := t.Capacity
		if !budgeted && fastBudget > 0 && t.Name != def {
			cap = fastBudget
			budgeted = true
		}
		mc.Tiers = append(mc.Tiers, TierConfig{
			Name: t.Name, Capacity: cap, RelativePerf: t.RelativePerf,
			Distance: m.TierDistance(t),
		})
	}
	return mc
}

// Validate reports configuration errors.
func (mc *MemoryConfig) Validate() error {
	if len(mc.Tiers) < 2 {
		return fmt.Errorf("advisor: need at least two tiers, got %d", len(mc.Tiers))
	}
	names := make(map[string]bool, len(mc.Tiers))
	for _, t := range mc.Tiers {
		if names[t.Name] {
			return fmt.Errorf("advisor: duplicate tier name %q", t.Name)
		}
		names[t.Name] = true
		if t.Capacity <= 0 {
			return fmt.Errorf("advisor: tier %q capacity must be positive", t.Name)
		}
		if t.RelativePerf <= 0 {
			return fmt.Errorf("advisor: tier %q relative perf must be positive", t.Name)
		}
		if t.Distance < 0 {
			return fmt.Errorf("advisor: tier %q distance must be non-negative", t.Name)
		}
	}
	if mc.DefaultTier != "" && !names[mc.DefaultTier] {
		return fmt.Errorf("advisor: default tier %q not in configuration", mc.DefaultTier)
	}
	return nil
}

// hierarchy returns the tiers sorted effectively-fastest first (the
// RelativePerf/Distance order the waterfall fills, so near instances
// of a tier outrank remote ones at equal raw perf) plus the effective
// default tier name.
func (mc *MemoryConfig) hierarchy() ([]TierConfig, string) {
	tiers := append([]TierConfig(nil), mc.Tiers...)
	sort.SliceStable(tiers, func(i, j int) bool {
		ei, ej := tiers[i].effectivePerf(), tiers[j].effectivePerf()
		if ei != ej {
			return ei > ej
		}
		return tiers[i].RelativePerf > tiers[j].RelativePerf
	})
	def := mc.DefaultTier
	if def == "" {
		def = tiers[len(tiers)-1].Name
	}
	return tiers, def
}

// ClampBudget bounds a knapsack budget by the candidates' total
// page-aligned footprint: budget beyond what every object together
// occupies changes no strategy's selection, and for ExactDP it is the
// difference between a footprint-sized DP table and a pseudo-
// polynomial blow-up over a multi-hundred-gigabyte floor tier.
func ClampBudget(objs []Object, budget int64) int64 {
	var total int64
	for _, o := range objs {
		total += units.PageAlign(o.Size)
	}
	if total < budget {
		return total
	}
	return budget
}

// filterOut returns remaining minus the chosen objects (the
// waterfall's cascade step). It allocates: a strategy may return a
// sub-slice of its input, so rewriting remaining in place could
// overwrite a selection the cascade has already kept.
func filterOut(remaining, chosen []Object) []Object {
	inChosen := make(map[string]bool, len(chosen))
	for _, o := range chosen {
		inChosen[o.ID] = true
	}
	next := make([]Object, 0, len(remaining))
	for _, o := range remaining {
		if !inChosen[o.ID] {
			next = append(next, o)
		}
	}
	return next
}

// Entry is one promoted object in the advisor report.
type Entry struct {
	Tier   string
	ID     string
	Site   callstack.Key
	Size   int64
	Misses int64
	Static bool
	// PartOffset/PartSize, when PartSize > 0, restrict the promotion
	// to the object's critical portion: auto-hbwmalloc binds only
	// [PartOffset, PartOffset+PartSize) of the allocation to fast
	// memory (Section V partitioned placement).
	PartOffset int64
	PartSize   int64
}

// TierBudget records one packed tier of an N-tier report: its name and
// the byte budget the waterfall filled it against. auto-hbwmalloc uses
// it to enforce per-tier budgets at run time.
type TierBudget struct {
	Name     string
	Capacity int64
}

// Degradation is the machine-readable marker a report carries when
// the requested solver could not finish and the advisor fell back to
// a greedy strategy instead of erroring. The marker — not the
// strategy label — is the honesty mechanism: the report still names
// the strategy the caller asked for, and Degraded says what actually
// produced the placement and how far from optimal it can be.
type Degradation struct {
	// Reason says why the solver gave up: "node-limit" or "deadline".
	Reason string
	// Fallback names the strategy that produced the placement.
	Fallback string
	// Nodes counts the branch-and-bound nodes spent before giving up.
	Nodes int64
	// RatioBound is a guaranteed lower bound on the placement's
	// objective ratio against the unknown exact optimum: fallback
	// objective / LP root bound. 1.0 means provably optimal.
	RatioBound float64
}

// Report is hmem_advisor's output: the objects to place on each
// non-default tier, plus the lb/ub size pre-filter bounds the
// interposition library uses to skip unwinding for out-of-range
// allocations (Algorithm 1, line 3).
type Report struct {
	App      string
	Strategy string
	// Budget is the fast-tier byte budget the selection was made for;
	// auto-hbwmalloc enforces it at run time.
	Budget  int64
	Entries []Entry
	// Tiers lists every packed (non-default) tier with its budget when
	// the hierarchy has more than one — N-tier reports are
	// self-describing. Two-tier reports leave it empty: their single
	// packed tier is Budget, keeping the exchange format byte-identical
	// to the paper's.
	Tiers []TierBudget
	// LBSize/UBSize bound the sizes of selected dynamic objects.
	LBSize, UBSize int64
	// Degraded is non-nil when the requested solver could not finish
	// and the placement came from Degraded.Fallback instead. Exact
	// reports leave it nil, which keeps the exchange format
	// byte-identical to the pre-degradation goldens.
	Degraded *Degradation
}

// Advise waterfall-packs the candidate objects over the configured
// hierarchy in descending order of relative performance: each tier's
// knapsack takes the best of what the faster tiers rejected (solving
// one knapsack per tier, as dmem_advisor does), and the overflow
// cascades down. Objects the waterfall assigns to the default tier get
// no entry — plain malloc already puts them there — so on machines
// with tiers slower than the default (DDR+NVM) the coldest objects
// receive explicit entries banishing them below it, while the classic
// slowest-is-default configuration degenerates to the paper's
// single-knapsack advisor. Static objects participate in the packing —
// promoting them is valuable advice for a developer — but are flagged
// so the interposer knows it cannot act on them.
//
// The exact solver polls ctx during its search, so a canceled context
// stops an advise promptly with runerr.ErrCanceled, and a ctx deadline
// behaves like a node-limit overrun — the non-Strict exact solver
// degrades to the greedy waterfall and marks the report. The greedy
// strategies are effectively instant and are not interrupted
// mid-knapsack.
//
// A non-nil recorder receives one pack event per waterfall packing
// step and the exact N-tier solver's search statistics (nodes
// explored, LP-bound cutoffs, best objective).
func Advise(ctx context.Context, app string, objs []Object, mc MemoryConfig, strat Strategy, rec *obs.Recorder) (*Report, error) {
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	if strat == nil {
		return nil, fmt.Errorf("advisor: nil strategy")
	}
	tiers, def := mc.hierarchy()

	// A hierarchy-aware strategy (the exact N-tier solver) assigns the
	// whole tier stack in one solve — unless the configuration is the
	// two-tier degenerate (one fast knapsack over a trailing default),
	// where the cascade below IS the exact problem and the strategy's
	// one-knapsack seam reproduces the reference DP bit for bit.
	if hs, ok := strat.(HierarchyStrategy); ok && !(len(tiers) == 2 && tiers[1].Name == def) {
		return adviseHierarchyStrategy(ctx, app, objs, tiers, def, hs, rec)
	}

	return waterfallCascade(app, objs, tiers, def, strat, rec)
}

// waterfallCascade is the per-tier greedy packing shared by the
// plain-strategy path of Advise and the exact solver's degradation
// fallback: the Waterfall over every tier but a trailing default, which
// absorbs the remainder implicitly — running the strategy against its
// (huge) capacity would be pure waste, pseudo-polynomial for ExactDP.
func waterfallCascade(app string, objs []Object, tiers []TierConfig, def string, strat Strategy, rec *obs.Recorder) (*Report, error) {
	// The strategies get a private copy, as SelectHierarchy does: the
	// caller's slice may be shared by concurrent sweep cells.
	byTier, err := Waterfall(append([]Object(nil), objs...), withoutTrailingDefault(tiers, def), strat, rec)
	if err != nil {
		return nil, err
	}
	return newReport(app, strat.Name(), tiers, def, byTier), nil
}

// withoutTrailingDefault drops the last tier when it is the default:
// the cascades that leave default placements implicit never pack it.
func withoutTrailingDefault(tiers []TierConfig, def string) []TierConfig {
	if tiers[len(tiers)-1].Name == def {
		return tiers[:len(tiers)-1]
	}
	return tiers
}

// Waterfall is the one tier-by-tier cascade: Advise, the partitioned
// advisor's overflow and the online placer's epoch re-solve all pack
// through it. Each tier, in the order given, takes the strategy's pick
// of what the tiers before it left. It packs exactly the tiers it is
// given, so callers that leave a trailing default implicit drop it
// first. Per tier the budget is clamped to the candidates' footprint,
// the strategy selects, an overpacked selection is refused, and rec
// gets one pack event. byTier[i] is tiers[i]'s selection in packing
// order.
func Waterfall(objs []Object, tiers []TierConfig, strat Strategy, rec *obs.Recorder) ([][]Object, error) {
	byTier := make([][]Object, len(tiers))
	remaining := objs
	for i, tier := range tiers {
		budget := ClampBudget(remaining, tier.Capacity)
		chosen := strat.Select(remaining, budget)
		if err := checkSelectionFits(strat.Name(), tier.Name, chosen, budget); err != nil {
			return nil, err
		}
		obs.Emit(rec, obs.PackEvent{
			Tier: tier.Name, Budget: budget,
			Candidates: len(remaining), Chosen: len(chosen),
			ChosenBytes: TotalPages(chosen) * units.PageSize,
		})
		byTier[i] = chosen
		if i+1 < len(tiers) {
			remaining = filterOut(remaining, chosen)
		}
	}
	return byTier, nil
}

// newReport assembles every advise path's report from per-tier
// selections: byTier[i] is tiers[i]'s pick (byTier may stop short of
// a trailing default). Entries follow hierarchy order; default-tier
// picks get none, since plain malloc already puts them there. Any
// packing beyond "one knapsack on the fastest tier" records its
// per-tier budgets, which the legacy two-tier format cannot express —
// including a SINGLE packed tier that is not the fastest (a DDR+NVM
// config packs only the floor), which a reader would otherwise misread
// as a promote-everything report.
func newReport(app, strategy string, tiers []TierConfig, def string, byTier [][]Object) *Report {
	rep := &Report{App: app, Strategy: strategy, Budget: tiers[0].Capacity}
	var packed []TierBudget
	for i, tier := range tiers {
		if tier.Name == def {
			continue
		}
		packed = append(packed, TierBudget{Name: tier.Name, Capacity: tier.Capacity})
		for _, o := range byTier[i] {
			rep.Entries = append(rep.Entries, Entry{
				Tier: tier.Name, ID: o.ID, Site: o.Site, Size: o.Size,
				Misses: o.Misses, Static: o.Static,
			})
		}
	}
	if len(packed) > 1 || (len(packed) == 1 && packed[0].Name != tiers[0].Name) {
		rep.Tiers = packed
	}
	rep.computeSizeBounds()
	return rep
}

// adviseHierarchyStrategy is the whole-hierarchy twin of the waterfall
// loop: one SelectHierarchy solve instead of a cascade of Select
// calls, with identical report-shape rules — entries per non-default
// tier in hierarchy order, default placements implicit, per-tier
// budgets recorded for N-tier reports.
func adviseHierarchyStrategy(ctx context.Context, app string, objs []Object, tiers []TierConfig, def string, hs HierarchyStrategy, rec *obs.Recorder) (*Report, error) {
	var sel map[string][]Object
	var err error
	if e, ok := hs.(ExactNTier); ok {
		// The stats-carrying solve is the same search; the recorder gets
		// its progress numbers even when the node budget overruns.
		var st NTierSolveStats
		sel, st, err = e.selectHierarchy(ctx, append([]Object(nil), objs...), tiers, def)
		if rec != nil {
			obs.Emit(rec, obs.SolverEvent{
				Strategy: hs.Name(), Objects: len(objs), Tiers: len(tiers),
				Nodes: st.Nodes, Pruned: st.Pruned, Best: st.Best, Overrun: st.Overrun,
			})
		}
		if err != nil && !e.Strict {
			// The degradation ladder: a node-limit overrun or an expired
			// deadline falls back to the greedy waterfall (within 1% of
			// exact on the paper's real profiles, PR 5 gap tables) with a
			// machine-readable marker instead of an error. A plain
			// cancellation is a caller's stop request and propagates.
			var reason string
			switch {
			case errors.Is(err, ErrNodeLimit):
				reason = "node-limit"
			case errors.Is(err, context.DeadlineExceeded):
				reason = "deadline"
			}
			if reason != "" {
				fallback := DensityStrategy{}
				rep, ferr := waterfallCascade(app, objs, tiers, def, fallback, rec)
				if ferr != nil {
					return nil, ferr
				}
				ratio := 1.0
				if st.RootBound > 0 {
					obj := ReportObjective(objs, rep, MemoryConfig{Tiers: tiers, DefaultTier: def})
					ratio = obj / st.RootBound
				}
				rep.Strategy = hs.Name()
				rep.Degraded = &Degradation{
					Reason: reason, Fallback: fallback.Name(),
					Nodes: st.Nodes, RatioBound: ratio,
				}
				obs.Emit(rec, obs.DegradeEvent{
					Strategy: hs.Name(), Reason: reason, Fallback: fallback.Name(),
					Nodes: st.Nodes, RatioBound: ratio,
				})
				return rep, nil
			}
		}
	} else {
		sel, err = hs.SelectHierarchy(append([]Object(nil), objs...), tiers, def)
	}
	if err != nil {
		return nil, err
	}
	// Trust boundary, as for the per-tier cascade: a selection keyed by
	// an unknown tier (or the default) would silently vanish from the
	// report, and an object selected twice would be placed twice — both
	// are contract violations the advisor refuses rather than emits.
	known := make(map[string]bool, len(tiers))
	for _, tier := range tiers {
		known[tier.Name] = tier.Name != def
	}
	for name := range sel {
		if !known[name] {
			return nil, fmt.Errorf("advisor: strategy %s selected objects for unknown or default tier %q", hs.Name(), name)
		}
	}
	placed := make(map[string]bool)
	byTier := make([][]Object, len(tiers))
	for i, tier := range tiers {
		if tier.Name == def {
			continue // default placements stay implicit, as in the cascade
		}
		chosen := sel[tier.Name]
		if err := checkSelectionFits(hs.Name(), tier.Name, chosen, tier.Capacity); err != nil {
			return nil, err
		}
		for _, o := range chosen {
			if placed[o.ID] {
				return nil, fmt.Errorf("advisor: strategy %s placed object %s on two tiers", hs.Name(), o.ID)
			}
			placed[o.ID] = true
		}
		byTier[i] = chosen
	}
	return newReport(app, hs.Name(), tiers, def, byTier), nil
}

// checkSelectionFits enforces the Strategy contract at the advisor's
// trust boundary: a selection whose page-aligned footprint exceeds the
// tier budget it was made for — e.g. a strategy that selected an
// object bigger than every tier — would otherwise flow into a report
// that auto-hbwmalloc silently truncates at run time. The advisor
// refuses to emit it instead.
func checkSelectionFits(strat, tier string, chosen []Object, budget int64) error {
	if used := TotalPages(chosen) * units.PageSize; used > budget {
		return fmt.Errorf("advisor: strategy %s overpacked tier %s: selection needs %d bytes of a %d-byte budget",
			strat, tier, used, budget)
	}
	return nil
}

func (r *Report) computeSizeBounds() {
	r.LBSize, r.UBSize = 0, 0
	first := true
	for _, e := range r.Entries {
		if e.Static {
			continue
		}
		if first {
			r.LBSize, r.UBSize = e.Size, e.Size
			first = false
			continue
		}
		if e.Size < r.LBSize {
			r.LBSize = e.Size
		}
		if e.Size > r.UBSize {
			r.UBSize = e.Size
		}
	}
}

// SiteTargets maps each whole-object dynamic site to the NAME of the
// tier the waterfall assigned it (what auto-hbwmalloc matches
// against). Partition entries are excluded — they are served through
// Partitions instead. auto-hbwmalloc resolves the names against the
// machine's heaps and binds each site to its target, falling down the
// hierarchy on capacity exhaustion.
func (r *Report) SiteTargets() map[callstack.Key]string {
	m := make(map[callstack.Key]string)
	for _, e := range r.Entries {
		if !e.Static && e.Site != "" && e.PartSize == 0 {
			m[e.Site] = e.Tier
		}
	}
	return m
}

// StaticAdvice returns the selected objects the interposer cannot move
// — the human-readable part of the report aimed at developers willing
// to edit the source (Section III, Step 3).
func (r *Report) StaticAdvice() []Entry {
	var out []Entry
	for _, e := range r.Entries {
		if e.Static {
			out = append(out, e)
		}
	}
	return out
}

// PromotedBytes sums the page-aligned sizes of all entries.
func (r *Report) PromotedBytes() int64 {
	var s int64
	for _, e := range r.Entries {
		s += units.PageAlign(e.Size)
	}
	return s
}

// Write emits the report in its human-readable exchange format:
//
//	HMEM_ADVISOR <app>
//	strategy <name>
//	degraded <reason> <fallback> <nodes> <ratio>   (degraded reports only)
//	budget <bytes>
//	tier <name> <bytes>        (N-tier reports only, one per packed tier)
//	lb <bytes>
//	ub <bytes>
//	object <tier> <static> <misses> <size> <id>|<site>
func (r *Report) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "HMEM_ADVISOR\t%s\n", r.App)
	fmt.Fprintf(bw, "strategy\t%s\n", r.Strategy)
	if r.Degraded != nil {
		fmt.Fprintf(bw, "degraded\t%s\t%s\t%d\t%s\n",
			r.Degraded.Reason, r.Degraded.Fallback, r.Degraded.Nodes,
			strconv.FormatFloat(r.Degraded.RatioBound, 'g', -1, 64))
	}
	fmt.Fprintf(bw, "budget\t%d\n", r.Budget)
	for _, t := range r.Tiers {
		fmt.Fprintf(bw, "tier\t%s\t%d\n", t.Name, t.Capacity)
	}
	fmt.Fprintf(bw, "lb\t%d\n", r.LBSize)
	fmt.Fprintf(bw, "ub\t%d\n", r.UBSize)
	for _, e := range r.Entries {
		if e.PartSize > 0 {
			fmt.Fprintf(bw, "object\t%s\t%t\t%d\t%d\t%s\t%s\t%d\t%d\n",
				e.Tier, e.Static, e.Misses, e.Size, e.ID, e.Site, e.PartOffset, e.PartSize)
			continue
		}
		fmt.Fprintf(bw, "object\t%s\t%t\t%d\t%d\t%s\t%s\n",
			e.Tier, e.Static, e.Misses, e.Size, e.ID, e.Site)
	}
	return bw.Flush()
}

// ReadReport parses a report written by Write.
func ReadReport(rd io.Reader) (*Report, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(nil, 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("advisor: line 1: %w", err)
		}
		return nil, fmt.Errorf("advisor: empty report")
	}
	head := strings.SplitN(sc.Text(), "\t", 2)
	if len(head) != 2 || head[0] != "HMEM_ADVISOR" {
		return nil, fmt.Errorf("advisor: bad report header %q", sc.Text())
	}
	r := &Report{App: head[1]}
	line := 1
	for sc.Scan() {
		line++
		f := strings.Split(sc.Text(), "\t")
		switch f[0] {
		case "strategy":
			if len(f) != 2 {
				return nil, fmt.Errorf("advisor: line %d: bad strategy", line)
			}
			r.Strategy = f[1]
		case "budget", "lb", "ub":
			if len(f) != 2 {
				return nil, fmt.Errorf("advisor: line %d: bad %s", line, f[0])
			}
			v, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("advisor: line %d: %v", line, err)
			}
			switch f[0] {
			case "budget":
				r.Budget = v
			case "lb":
				r.LBSize = v
			case "ub":
				r.UBSize = v
			}
		case "degraded":
			if len(f) != 5 {
				return nil, fmt.Errorf("advisor: line %d: degraded needs 5 fields, got %d", line, len(f))
			}
			nodes, err := strconv.ParseInt(f[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("advisor: line %d: bad degraded nodes", line)
			}
			ratio, err := strconv.ParseFloat(f[4], 64)
			if err != nil {
				return nil, fmt.Errorf("advisor: line %d: bad degraded ratio", line)
			}
			r.Degraded = &Degradation{Reason: f[1], Fallback: f[2], Nodes: nodes, RatioBound: ratio}
		case "tier":
			if len(f) != 3 {
				return nil, fmt.Errorf("advisor: line %d: tier needs 3 fields, got %d", line, len(f))
			}
			cap, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("advisor: line %d: bad tier capacity", line)
			}
			r.Tiers = append(r.Tiers, TierBudget{Name: f[1], Capacity: cap})
		case "object":
			if len(f) != 7 && len(f) != 9 {
				return nil, fmt.Errorf("advisor: line %d: object needs 7 or 9 fields, got %d", line, len(f))
			}
			static, err := strconv.ParseBool(f[2])
			if err != nil {
				return nil, fmt.Errorf("advisor: line %d: bad static flag", line)
			}
			misses, err := strconv.ParseInt(f[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("advisor: line %d: bad misses", line)
			}
			size, err := strconv.ParseInt(f[4], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("advisor: line %d: bad size", line)
			}
			e := Entry{
				Tier: f[1], Static: static, Misses: misses, Size: size,
				ID: f[5], Site: callstack.Key(f[6]),
			}
			if len(f) == 9 {
				// A partition is a non-empty range inside the
				// allocation. Write emits the 9-field form only for
				// PartSize > 0, so a size <= 0 would not round-trip.
				if e.PartOffset, err = strconv.ParseInt(f[7], 10, 64); err != nil || e.PartOffset < 0 {
					return nil, fmt.Errorf("advisor: line %d: bad partition offset", line)
				}
				if e.PartSize, err = strconv.ParseInt(f[8], 10, 64); err != nil || e.PartSize <= 0 {
					return nil, fmt.Errorf("advisor: line %d: bad partition size", line)
				}
			}
			r.Entries = append(r.Entries, e)
		case "":
			// blank line tolerated
		default:
			return nil, fmt.Errorf("advisor: line %d: unknown directive %q", line, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("advisor: line %d: %w", line+1, err)
	}
	return r, nil
}
