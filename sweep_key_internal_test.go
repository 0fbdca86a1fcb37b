package hybridmem

// Memo-key completeness audit for the sweep engine's profiling memo
// (and, by construction, the artifact cache and advisory daemon, which
// share the same content-addressed key): perturbing ANY field the
// profiling stage reads must change the key, perturbing fields only
// the advise/execute tail reads must NOT, and the key must be free of
// process state — equal-content workloads built twice (fresh pointers,
// fresh maps) must share one key, which is the regression the old
// %p-based scheme failed. The execution-sharing key gets the same
// audit against the fields Execute reads.

import (
	"testing"

	"repro/internal/advisor"
	"repro/internal/apps"
	"repro/internal/mem"
	"repro/internal/units"
)

func keyBase() (*Workload, PipelineConfig) {
	w, err := apps.ByName("minife")
	if err != nil {
		panic(err)
	}
	return w, PipelineConfig{
		Machine:  DefaultKNL(),
		Seed:     7,
		Budget:   64 * units.MB,
		Strategy: StrategyMisses(0),
	}
}

func keyOfConfig(t *testing.T, w *Workload, cfg PipelineConfig) string {
	t.Helper()
	c := cfg.withDefaults()
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
	return string(profileKey(w, &c))
}

func TestProfileKeyStableAcrossConstructions(t *testing.T) {
	w1, c1 := keyBase()
	w2, c2 := keyBase()
	if w1 == w2 {
		t.Fatal("test needs distinct workload pointers")
	}
	if keyOfConfig(t, w1, c1) != keyOfConfig(t, w2, c2) {
		t.Fatal("equal-content configurations key differently — process state (the old pointer-identity key) leaked into the memo key")
	}
}

// TestProfileKeyCompleteness perturbs every output-affecting field of
// the profiling configuration one at a time and asserts the memo key
// moves; a field this audit misses is a field two DIFFERENT profiling
// runs could silently share one artifact through.
func TestProfileKeyCompleteness(t *testing.T) {
	affecting := []struct {
		name string
		mut  func(w *Workload, c *PipelineConfig)
	}{
		{"config.Seed", func(w *Workload, c *PipelineConfig) { c.Seed++ }},
		{"config.Cores", func(w *Workload, c *PipelineConfig) { c.Cores = 2 }},
		{"config.SamplePeriod", func(w *Workload, c *PipelineConfig) { c.SamplePeriod = DefaultScaledPeriod * 2 }},
		{"config.MinAllocSize", func(w *Workload, c *PipelineConfig) { c.MinAllocSize = 8 * units.KB }},
		{"config.RefScale", func(w *Workload, c *PipelineConfig) { c.RefScale = 0.5 }},
		{"machine.TierCapacity", func(w *Workload, c *PipelineConfig) { c.Machine.Tiers[0].Capacity += 4096 }},
		{"machine.TierLatency", func(w *Workload, c *PipelineConfig) { c.Machine.Tiers[0].LatencyCycles++ }},
		{"machine.Cores", func(w *Workload, c *PipelineConfig) { c.Machine.Cores /= 2 }},
		{"machine.CacheMode", func(w *Workload, c *PipelineConfig) { c.Machine = mem.WithCacheMode(c.Machine) }},
		{"machine.Topology", func(w *Workload, c *PipelineConfig) { c.Machine = WithUniformTopology(c.Machine, 2) }},
		{"workload.Name", func(w *Workload, c *PipelineConfig) { w.Name = "minife-b" }},
		{"workload.Iterations", func(w *Workload, c *PipelineConfig) { w.Iterations++ }},
		{"workload.ObjectSize", func(w *Workload, c *PipelineConfig) { w.Objects[0].Size += 4096 }},
		{"workload.StaticBytes", func(w *Workload, c *PipelineConfig) { w.StaticBytes += 4096 }},
		{"workload.StackBytes", func(w *Workload, c *PipelineConfig) { w.StackBytes += 4096 }},
	}
	wBase, cBase := keyBase()
	base := keyOfConfig(t, wBase, cBase)
	for _, p := range affecting {
		w, c := keyBase()
		p.mut(w, &c)
		if keyOfConfig(t, w, c) == base {
			t.Errorf("%s: profiling memo key did not change — two different profiling runs would share one artifact", p.name)
		}
	}

	// Fields only the advise/execute tail reads must NOT move the key:
	// cells differing only in these are exactly the cells that must
	// share one profiling artifact.
	inert := []struct {
		name string
		mut  func(w *Workload, c *PipelineConfig)
	}{
		{"config.Budget", func(w *Workload, c *PipelineConfig) { c.Budget *= 2 }},
		{"config.Strategy", func(w *Workload, c *PipelineConfig) { c.Strategy = StrategyDensity }},
		{"config.TimeAware", func(w *Workload, c *PipelineConfig) { c.TimeAware = true }},
		{"config.Interpose", func(w *Workload, c *PipelineConfig) { c.Interpose.BudgetOverride = 1 * units.MB }},
		{"config.Memory", func(w *Workload, c *PipelineConfig) {
			mc := TwoTier(128 * units.MB)
			c.Memory = &mc
		}},
	}
	for _, p := range inert {
		w, c := keyBase()
		p.mut(w, &c)
		if keyOfConfig(t, w, c) != base {
			t.Errorf("%s: moved the profiling memo key — cells differing only in the advise tail would stop sharing the profile", p.name)
		}
	}
}

// TestProfileKeyDefaultNormalization: spelling out a default and
// taking it implicitly must key the same artifact, or a cache would
// hold two copies of one profiling run.
func TestProfileKeyDefaultNormalization(t *testing.T) {
	w, c := keyBase()
	base := keyOfConfig(t, w, c)

	w2, c2 := keyBase()
	c2.SamplePeriod = DefaultScaledPeriod
	c2.MinAllocSize = 4 * units.KB
	c2.RefScale = 1
	c2.Cores = c2.Machine.Cores
	if keyOfConfig(t, w2, c2) != base {
		t.Fatal("explicit defaults key a different artifact than implicit ones")
	}
}

func reportBase() *PlacementReport {
	return &PlacementReport{
		App: "minife", Strategy: "misses(0%)", Budget: 64 * units.MB,
		Entries: []advisor.Entry{{Tier: "MCDRAM", ID: "A", Site: "main>alloc_a", Size: 8 * units.MB, Misses: 1000}},
		LBSize:  8 * units.MB, UBSize: 8 * units.MB,
	}
}

func execKeyOf(t *testing.T, w *Workload, cfg PipelineConfig, rep *PlacementReport) string {
	t.Helper()
	c := cfg.withDefaults()
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
	return string(executeKey(w, &c, rep))
}

// TestExecuteKeyCompleteness perturbs every input of a pipeline cell's
// production run one at a time and asserts the execution-sharing key
// moves; a field this audit misses is a field two DIFFERENT production
// runs could silently share one result through. The strategy name —
// read only by the traced run manifest, and traced runs are never
// shared — must not move it.
func TestExecuteKeyCompleteness(t *testing.T) {
	affecting := []struct {
		name string
		mut  func(w *Workload, c *PipelineConfig, r *PlacementReport)
	}{
		{"workload.Iterations", func(w *Workload, c *PipelineConfig, r *PlacementReport) { w.Iterations++ }},
		{"workload.ObjectSize", func(w *Workload, c *PipelineConfig, r *PlacementReport) { w.Objects[0].Size += 4096 }},
		{"machine.TierLatency", func(w *Workload, c *PipelineConfig, r *PlacementReport) { c.Machine.Tiers[0].LatencyCycles++ }},
		{"machine.CacheMode", func(w *Workload, c *PipelineConfig, r *PlacementReport) { c.Machine = mem.WithCacheMode(c.Machine) }},
		{"config.Cores", func(w *Workload, c *PipelineConfig, r *PlacementReport) { c.Cores = 2 }},
		{"config.Seed", func(w *Workload, c *PipelineConfig, r *PlacementReport) { c.Seed++ }},
		{"config.RefScale", func(w *Workload, c *PipelineConfig, r *PlacementReport) { c.RefScale = 0.5 }},
		{"interpose.BudgetOverride", func(w *Workload, c *PipelineConfig, r *PlacementReport) { c.Interpose.BudgetOverride = 32 * units.MB }},
		{"report.Entries", func(w *Workload, c *PipelineConfig, r *PlacementReport) { r.Entries[0].Site = "main>alloc_b" }},
		{"report.EntryPartition", func(w *Workload, c *PipelineConfig, r *PlacementReport) { r.Entries[0].PartSize = 4 * units.MB }},
		{"report.Budget", func(w *Workload, c *PipelineConfig, r *PlacementReport) { r.Budget *= 2 }},
		{"report.Tiers", func(w *Workload, c *PipelineConfig, r *PlacementReport) {
			r.Tiers = []advisor.TierBudget{{Name: "MCDRAM", Capacity: r.Budget}}
		}},
		{"report.LBSize", func(w *Workload, c *PipelineConfig, r *PlacementReport) { r.LBSize-- }},
		{"report.UBSize", func(w *Workload, c *PipelineConfig, r *PlacementReport) { r.UBSize++ }},
	}
	wBase, cBase := keyBase()
	base := execKeyOf(t, wBase, cBase, reportBase())
	for _, p := range affecting {
		w, c := keyBase()
		r := reportBase()
		p.mut(w, &c, r)
		if execKeyOf(t, w, c, r) == base {
			t.Errorf("%s: execution key did not change — two different production runs would share one result", p.name)
		}
	}

	w, c := keyBase()
	r := reportBase()
	r.Strategy = "density"
	if execKeyOf(t, w, c, r) != base {
		t.Error("report.Strategy moved the execution key — cells whose placements coincide would stop sharing the run")
	}
	if rb := reportBase(); execKeyOf(t, w, c, rb) != base || rb.Strategy != "misses(0%)" {
		t.Error("executeKey must not modify the cell's own report")
	}
}
