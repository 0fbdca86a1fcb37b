package advisor

import (
	"context"
	"testing"

	"repro/internal/paramedir"
	"repro/internal/units"
)

func timed(id string, sizeMB int64, misses int64, ivs ...paramedir.LiveInterval) TimedObject {
	o := TimedObject{Object: obj(id, sizeMB, misses)}
	o.Intervals = ivs
	return o
}

func iv(start, end int64, sizeMB int64) paramedir.LiveInterval {
	return paramedir.LiveInterval{Start: units.Cycles(start), End: units.Cycles(end), Size: sizeMB * units.MB}
}

func TestTimeAwarePacksDisjointObjects(t *testing.T) {
	// Two 20 MB temporaries alive in DISJOINT windows plus one 20 MB
	// persistent. Sum of maxima = 60 MB; peak concurrent = 40 MB.
	objs := []TimedObject{
		timed("persistent", 20, 1000, iv(0, 1000, 20)),
		timed("tmpA", 20, 900, iv(100, 200, 20), iv(400, 500, 20)),
		timed("tmpB", 20, 800, iv(250, 350, 20), iv(550, 650, 20)),
	}
	// A 40 MB budget cannot hold all three under the stock sum
	// constraint, but time-aware packing takes everything.
	plain, err := Advise(context.Background(), "app", []Object{objs[0].Object, objs[1].Object, objs[2].Object}, TwoTier(40*units.MB), MissesStrategy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Entries) == 3 {
		t.Fatal("sum-constrained advisor should not fit all three (test premise)")
	}
	rep, err := AdviseTimeAware("app", objs, TwoTier(40*units.MB), MissesStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 3 {
		t.Fatalf("time-aware selected %d objects, want all 3 (disjoint lifetimes)", len(rep.Entries))
	}
	if rep.Strategy != "misses(0%)+timeaware" {
		t.Fatalf("strategy label = %q", rep.Strategy)
	}
}

func TestTimeAwareRespectsConcurrentPeak(t *testing.T) {
	// Two 30 MB objects that OVERLAP in time: a 40 MB budget holds
	// only one, even though each individually fits.
	objs := []TimedObject{
		timed("a", 30, 1000, iv(0, 500, 30)),
		timed("b", 30, 900, iv(400, 900, 30)),
	}
	rep, err := AdviseTimeAware("app", objs, TwoTier(40*units.MB), MissesStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 1 || rep.Entries[0].ID != "a" {
		t.Fatalf("selection = %+v, want only the hotter overlapping object", rep.Entries)
	}
}

func TestTimeAwareBackToBackDoesNotOverlap(t *testing.T) {
	// B starts exactly when A ends: phase churn. Both must fit a
	// budget that holds one at a time.
	objs := []TimedObject{
		timed("a", 30, 1000, iv(0, 500, 30)),
		timed("b", 30, 900, iv(500, 900, 30)),
	}
	rep, err := AdviseTimeAware("app", objs, TwoTier(32*units.MB), MissesStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 2 {
		t.Fatalf("back-to-back lifetimes should both fit, got %+v", rep.Entries)
	}
}

func TestTimeAwareNoTimelineDegradesToSum(t *testing.T) {
	// Objects without intervals are treated as whole-run live.
	objs := []TimedObject{
		timed("a", 30, 1000),
		timed("b", 30, 900),
	}
	rep, err := AdviseTimeAware("app", objs, TwoTier(40*units.MB), MissesStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 1 {
		t.Fatalf("no-timeline objects must budget like the stock advisor, got %+v", rep.Entries)
	}
}

func TestTimeAwareErrors(t *testing.T) {
	if _, err := AdviseTimeAware("a", nil, MemoryConfig{}, MissesStrategy{}); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, err := AdviseTimeAware("a", nil, TwoTier(units.MB), nil); err == nil {
		t.Fatal("nil strategy accepted")
	}
}

func TestPeakConcurrentBytes(t *testing.T) {
	objs := []TimedObject{
		timed("a", 20, 1, iv(0, 100, 20)),
		timed("b", 20, 1, iv(50, 150, 20)),
		timed("c", 20, 1, iv(200, 300, 20)),
	}
	peak := peakConcurrentBytes(objs)
	if peak != 40*units.MB {
		t.Fatalf("peak = %d, want 40 MB (a+b overlap, c disjoint)", peak/units.MB)
	}
}

func TestFromProfileTimed(t *testing.T) {
	p := &paramedir.Profile{Objects: []paramedir.ObjectStat{
		{ID: "k", MaxSize: 100, Misses: 7, Intervals: []paramedir.LiveInterval{{Start: 1, End: 2, Size: 100}}},
	}}
	objs := FromProfileTimed(p)
	if len(objs) != 1 || len(objs[0].Intervals) != 1 {
		t.Fatalf("FromProfileTimed = %+v", objs)
	}
}

// peakConcurrentBytes reports the peak concurrent page-aligned
// footprint of a set of timed objects (diagnostics and tests).
func peakConcurrentBytes(objs []TimedObject) int64 {
	c := &concurrencyChecker{}
	for i := range objs {
		c.add(&objs[i])
	}
	var zero TimedObject
	zero.Intervals = []paramedir.LiveInterval{}
	// peakWith with an empty candidate just sweeps the committed set.
	return c.peakWith(&zero)
}
