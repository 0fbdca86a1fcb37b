package advisor

import (
	"fmt"
	"sort"

	"repro/internal/paramedir"
	"repro/internal/units"
)

// This file implements the refinement Section III explicitly leaves on
// the table: "Since the generated trace-file contains a time-varying
// representation of the application address space, hmem_advisor could
// use this information to further tune the suggested allocations."
//
// The stock advisor assumes every object is live for the whole run and
// budgets the SUM of selected sizes. For churny applications (Lulesh)
// that is over-conservative: temporaries from different phases never
// coexist, so the real constraint is the maximum CONCURRENT footprint.
// AdviseTimeAware packs with exactly that constraint.

// TimedObject couples a placement candidate with its liveness
// timeline.
type TimedObject struct {
	Object
	Intervals []paramedir.LiveInterval
}

// FromProfileTimed converts Paramedir output keeping the liveness
// intervals.
func FromProfileTimed(p *paramedir.Profile) []TimedObject {
	objs := make([]TimedObject, 0, len(p.Objects))
	for _, s := range p.Objects {
		objs = append(objs, TimedObject{
			Object: Object{
				ID: s.ID, Site: s.Site, Size: s.MaxSize, Misses: s.Misses, Static: s.Static,
			},
			Intervals: s.Intervals,
		})
	}
	return objs
}

// concurrencyChecker incrementally maintains the peak concurrent
// page-aligned footprint of a selection via an event sweep.
type concurrencyChecker struct {
	events []concEvent // sorted lazily per query
}

type concEvent struct {
	t     units.Cycles
	delta int64
	end   bool
}

// peakWith returns the peak concurrent bytes if cand were added.
func (c *concurrencyChecker) peakWith(cand *TimedObject) int64 {
	evs := make([]concEvent, 0, len(c.events)+2*len(cand.Intervals))
	evs = append(evs, c.events...)
	evs = append(evs, intervalEvents(cand)...)
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		// Process ends before starts at the same instant: back-to-back
		// phase churn does not overlap.
		return evs[i].end && !evs[j].end
	})
	var cur, peak int64
	for _, e := range evs {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// add commits cand to the selection.
func (c *concurrencyChecker) add(cand *TimedObject) {
	c.events = append(c.events, intervalEvents(cand)...)
}

func intervalEvents(o *TimedObject) []concEvent {
	if len(o.Intervals) == 0 {
		// No timeline (e.g. profile without liveness): assume live for
		// the whole run, which degrades to the stock sum constraint.
		return []concEvent{
			{t: 0, delta: units.PageAlign(o.Size)},
			{t: 1 << 62, delta: -units.PageAlign(o.Size), end: true},
		}
	}
	evs := make([]concEvent, 0, 2*len(o.Intervals))
	for _, iv := range o.Intervals {
		sz := units.PageAlign(iv.Size)
		evs = append(evs,
			concEvent{t: iv.Start, delta: sz},
			concEvent{t: iv.End, delta: -sz, end: true},
		)
	}
	return evs
}

// AdviseTimeAware waterfall-packs candidates over the hierarchy
// honouring, per tier, the PEAK CONCURRENT footprint rather than the
// sum of maximum sizes. The strategy parameter supplies the packing
// order (misses or density); a per-tier concurrency sweep replaces the
// greedy fit test, and objects rejected by one tier cascade to the
// next. Objects landing on the default tier get no entry, exactly as
// in Advise. The report it returns is directly consumable by
// auto-hbwmalloc, whose run-time budget bookkeeping enforces the same
// concurrent limit.
func AdviseTimeAware(app string, objs []TimedObject, mc MemoryConfig, strat Strategy) (*Report, error) {
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	if strat == nil {
		return nil, fmt.Errorf("advisor: nil strategy")
	}
	tiers, def := mc.hierarchy()
	if err := RejectHierarchyStrategyCascade("time-aware", strat, tiers, def); err != nil {
		return nil, err
	}

	// Use the strategy to produce the ORDER by running it with a
	// budget covering every candidate (so nothing is dropped for fit
	// reasons), then re-pack under the concurrency constraint.
	plain := make([]Object, len(objs))
	byID := make(map[string]*TimedObject, len(objs))
	for i := range objs {
		plain[i] = objs[i].Object
		byID[objs[i].ID] = &objs[i]
	}
	ordered := strat.Select(plain, ClampBudget(plain, 1<<62))

	byTier := make([][]Object, len(tiers))
	for i, tier := range withoutTrailingDefault(tiers, def) {
		check := &concurrencyChecker{}
		var next []Object
		for _, o := range ordered {
			to := byID[o.ID]
			if to == nil {
				continue
			}
			if check.peakWith(to) > tier.Capacity {
				next = append(next, o)
				continue
			}
			check.add(to)
			byTier[i] = append(byTier[i], o)
		}
		ordered = next
	}
	return newReport(app, strat.Name()+"+timeaware", tiers, def, byTier), nil
}
