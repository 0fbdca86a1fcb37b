package paramedir

import (
	"repro/internal/trace"
	"repro/internal/units"
)

// HotRange describes the contiguous portion of an object that absorbs
// most of its sampled misses — the input to partitioned placement
// (Section V: "the current framework places a whole data object in
// fast memory but ... it could be wise to place in fast memory only
// the critical portion", citing the data-partitioning work of Peña &
// Balaji and StructSlim).
type HotRange struct {
	// Offset/Size delimit the hot portion within the object, page
	// aligned.
	Offset, Size int64
	// SampleShare is the fraction of the object's samples that fall
	// inside the range.
	SampleShare float64
	// Samples is the object's total sample count (confidence).
	Samples int
}

// hotRangeBuckets is the histogram resolution of the analysis.
const hotRangeBuckets = 32

// hotRangeTargetShare is the sample share a hot range must cover.
const hotRangeTargetShare = 0.80

// AnalyzeHotRanges computes, for every profiled object with enough
// samples, the smallest contiguous range covering at least 80% of its
// sampled misses. Objects whose samples spread uniformly get a range
// covering (almost) the whole object — partitioning them is useless,
// and callers detect that via Size ≈ object size.
func AnalyzeHotRanges(p *Profile, tr *trace.Trace) map[string]HotRange {
	sizes := make(map[string]int64, len(p.Objects))
	for _, o := range p.Objects {
		sizes[o.ID] = o.MaxSize
	}
	offsets := collectOffsets(tr)

	out := make(map[string]HotRange)
	for id, offs := range offsets {
		size := sizes[id]
		if size <= 0 || len(offs) < minPatternSamples {
			continue
		}
		out[id] = hotRangeOf(offs, size)
	}
	return out
}

// collectOffsets gathers per-object sample offsets (shared with
// pattern classification).
func collectOffsets(tr *trace.Trace) map[string][]int64 {
	offsets := make(map[string][]int64)
	// The visitor never fails, so neither does the walk; the regions
	// still live at the end do not matter here.
	_, _ = tr.Walk(func(_ int, rec *trace.Record, reg trace.Region, ok bool) error {
		if ok && rec.Type == trace.EvSample {
			offsets[reg.ID] = append(offsets[reg.ID], int64(rec.Addr-reg.Start))
		}
		return nil
	})
	return offsets
}

// hotRangeOf finds the smallest contiguous bucket window holding at
// least hotRangeTargetShare of the samples.
func hotRangeOf(offs []int64, size int64) HotRange {
	bucket := (size + hotRangeBuckets - 1) / hotRangeBuckets
	var hist [hotRangeBuckets]int
	for _, o := range offs {
		b := o / bucket
		if b < 0 {
			b = 0
		}
		if b >= hotRangeBuckets {
			b = hotRangeBuckets - 1
		}
		hist[b]++
	}
	total := len(offs)
	need := int(float64(total)*hotRangeTargetShare + 0.5)

	bestLo, bestHi := 0, hotRangeBuckets-1
	bestLen := hotRangeBuckets
	for lo := 0; lo < hotRangeBuckets; lo++ {
		sum := 0
		for hi := lo; hi < hotRangeBuckets; hi++ {
			sum += hist[hi]
			if sum >= need {
				if hi-lo+1 < bestLen {
					bestLen = hi - lo + 1
					bestLo, bestHi = lo, hi
				}
				break
			}
		}
	}
	var inside int
	for b := bestLo; b <= bestHi; b++ {
		inside += hist[b]
	}
	off := int64(bestLo) * bucket
	end := int64(bestHi+1) * bucket
	if end > size {
		end = size
	}
	// Round the range outward to page boundaries (placement granularity).
	off = off / units.PageSize * units.PageSize
	return HotRange{
		Offset:      off,
		Size:        units.PageAlign(end - off),
		SampleShare: float64(inside) / float64(total),
		Samples:     total,
	}
}
