package hybridmem

// Integration tests for the Section V extensions: partitioned
// placement on a workload with one large, non-uniformly accessed
// object.

import (
	"bytes"
	"testing"

	"repro/internal/paramedir"
)

// skewedWorkload has a 400 MB array whose accesses concentrate in the
// first eighth (50 MB): too big for a 128 MB budget as a whole, ideal
// for partitioned placement.
func skewedWorkload() *Workload {
	return &Workload{
		Name: "skewed", Program: "skewed", Language: "C", Parallelism: "MPI+OpenMP",
		LinesOfCode: 1000, Ranks: 64, Threads: 4,
		FOMName: "it/s", FOMUnit: "it/s", WorkPerIteration: 1,
		Iterations: 10,
		Objects: []ObjectSpec{
			{Name: "table", Class: Dynamic, Size: 400 * MB,
				SitePath: []string{"main", "setup", "allocTable"}},
			{Name: "work", Class: Dynamic, Size: 20 * MB,
				SitePath: []string{"main", "setup", "allocWork"}},
		},
		IterPhases: []Phase{
			{Routine: "lookup", Instructions: 150000, Touches: []Touch{
				// 1/8 hot fraction: the first 50 MB absorb the misses.
				{Object: "table", Pattern: GatherRandom, Refs: 60000, HotFraction: 0.125},
				{Object: "work", Pattern: Sequential, Refs: 15000},
			}},
		},
	}
}

func TestPartitionedPlacementBeatsWholeObjectAdvising(t *testing.T) {
	w := skewedWorkload()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	m := PerRankMachine(DefaultKNL(), w.Ranks, w.Threads)
	tr, ddrRun, err := Profile(w, ProfileConfig{Machine: m, Seed: 3, SamplePeriod: 700})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}

	// The hot-range analysis must localize the table's heat.
	hot := paramedir.AnalyzeHotRanges(prof, tr)
	var tableID string
	for _, o := range prof.Objects {
		if o.MaxSize == 400*MB {
			tableID = o.ID
		}
	}
	hr, ok := hot[tableID]
	if !ok {
		t.Fatal("no hot range for the skewed table")
	}
	if hr.Size > 120*MB {
		t.Fatalf("hot range = %d MB, want ~50 MB (1/8 of 400)", hr.Size/MB)
	}
	if hr.SampleShare < 0.75 {
		t.Fatalf("hot range covers only %.2f of samples", hr.SampleShare)
	}

	const budget = 128 * MB
	// Whole-object advising cannot place the 400 MB table.
	whole, err := Advise(prof, budget, StrategyMisses(0))
	if err != nil {
		t.Fatal(err)
	}
	wholeRun, err := Execute(w, whole, InterposeOptions{}, ExecuteConfig{Machine: m, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Partitioned advising places the table's hot 50 MB.
	part, err := AdvisePartitioned(prof, tr, TwoTier(budget), StrategyMisses(0))
	if err != nil {
		t.Fatal(err)
	}
	foundPart := false
	for _, e := range part.Entries {
		if e.PartSize > 0 {
			foundPart = true
			if e.PartSize >= 400*MB || e.PartSize > budget {
				t.Fatalf("partition size = %d MB", e.PartSize/MB)
			}
		}
	}
	if !foundPart {
		t.Fatal("partitioned advisor produced no partition entry")
	}
	partRun, err := Execute(w, part, InterposeOptions{}, ExecuteConfig{Machine: m, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}

	if partRun.FOM <= wholeRun.FOM {
		t.Errorf("partitioned placement (%v) should beat whole-object advising (%v)",
			partRun.FOM, wholeRun.FOM)
	}
	if partRun.FOM <= ddrRun.FOM {
		t.Errorf("partitioned placement (%v) should beat DDR (%v)", partRun.FOM, ddrRun.FOM)
	}
}

func TestPartitionedReportRoundTrip(t *testing.T) {
	w := skewedWorkload()
	m := PerRankMachine(DefaultKNL(), w.Ranks, w.Threads)
	tr, _, err := Profile(w, ProfileConfig{Machine: m, Seed: 3, SamplePeriod: 700})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AdvisePartitioned(prof, tr, TwoTier(128*MB), StrategyMisses(0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(rep.Entries) {
		t.Fatalf("entries = %d, want %d", len(got.Entries), len(rep.Entries))
	}
	for i := range got.Entries {
		if got.Entries[i].PartSize != rep.Entries[i].PartSize ||
			got.Entries[i].PartOffset != rep.Entries[i].PartOffset {
			t.Fatalf("partition fields lost in round trip: %+v vs %+v",
				got.Entries[i], rep.Entries[i])
		}
	}
}
