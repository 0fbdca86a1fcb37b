package advisor

import (
	"fmt"

	"repro/internal/paramedir"
	"repro/internal/units"
)

// Partitioned placement (Section V, last future-work item): when a
// data object does not fit the fast tier — or is not uniformly
// accessed — place only its critical portion. The hot-range analysis
// of Paramedir supplies the per-object critical portions; the advisor
// considers, for every candidate that does not fit whole, a partition
// entry covering just the hot range; auto-hbwmalloc then binds that
// sub-range's pages to fast memory at allocation time.

// partitionMinShare is the minimum sample share a hot range must cover
// for a partition to be worthwhile: misses outside the placed range
// stay slow, so a diffuse object gains too little.
const partitionMinShare = 0.70

// AdvisePartitioned packs like the stock advisor but, when a candidate
// does not fit the FASTEST tier's remaining budget as a whole, tries
// its hot range instead. Partition entries carry PartOffset/PartSize
// and their misses are discounted by the range's sample share.
// Whole-object rejects (and the cold remainder of partitioned objects'
// sites) cascade down the rest of the hierarchy with the plain
// waterfall — partitioning only ever targets the fastest tier, where
// the page-level mbind is worth its bookkeeping.
func AdvisePartitioned(app string, objs []Object, hot map[string]paramedir.HotRange,
	mc MemoryConfig, strat Strategy) (*Report, error) {
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	if strat == nil {
		return nil, fmt.Errorf("advisor: nil strategy")
	}
	tiers, def := mc.hierarchy()
	if err := RejectHierarchyStrategyCascade("partitioned", strat, tiers, def); err != nil {
		return nil, err
	}
	fast := tiers[0]

	// Strategy supplies the order (footprint-covering pack); the fit
	// loop below applies whole-or-partition placement.
	ordered := strat.Select(objs, ClampBudget(objs, 1<<62))

	var fastEntries []Entry
	remaining := fast.Capacity / units.PageSize
	var overflow []Object
	for _, o := range ordered {
		pages := o.pages()
		if pages > 0 && pages <= remaining {
			remaining -= pages
			fastEntries = append(fastEntries, Entry{
				Tier: fast.Name, ID: o.ID, Site: o.Site, Size: o.Size,
				Misses: o.Misses, Static: o.Static,
			})
			continue
		}
		// Whole object does not fit: try the hot range.
		hr, ok := hot[o.ID]
		if !ok || o.Static || hr.SampleShare < partitionMinShare || hr.Size >= o.Size {
			overflow = append(overflow, o)
			continue
		}
		hp := units.PagesFor(hr.Size)
		if hp == 0 || hp > remaining {
			overflow = append(overflow, o)
			continue
		}
		remaining -= hp
		fastEntries = append(fastEntries, Entry{
			Tier: fast.Name, ID: o.ID, Site: o.Site, Size: o.Size,
			Misses:     int64(float64(o.Misses) * hr.SampleShare),
			PartOffset: hr.Offset, PartSize: hr.Size,
		})
	}
	// Waterfall the whole-object overflow down the remaining tiers.
	rest, err := Waterfall(overflow, withoutTrailingDefault(tiers[1:], def), strat, nil)
	if err != nil {
		return nil, err
	}
	rep := newReport(app, strat.Name()+"+partition", tiers, def, append([][]Object{nil}, rest...))
	// The fastest tier's whole and partition entries lead, in
	// hierarchy order; the size bounds must cover them too.
	rep.Entries = append(fastEntries, rep.Entries...)
	rep.computeSizeBounds()
	return rep, nil
}

// Partitions returns the partition entries of a report, keyed by site.
func (r *Report) Partitions() map[string]Entry {
	out := make(map[string]Entry)
	for _, e := range r.Entries {
		if e.PartSize > 0 && !e.Static {
			out[string(e.Site)] = e
		}
	}
	return out
}
