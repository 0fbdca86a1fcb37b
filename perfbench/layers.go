package main

import (
	"fmt"
	"strings"

	hm "repro"
)

// counters are exact work counts summed over the engine runs and
// stage calls of one pass. They repeat bit for bit from run to run; a
// change in them is a change in behaviour, not in speed.
type counters struct {
	refs, llcAccesses, llcMisses        int64
	lastHits, placements, arenaReuses   int64
	pebsSamples                         int64
	onlineRefs, epochs, resolves        int64
	warmHits, migrations, migratedBytes int64
	analyzeCalls, adviseCalls           int64
}

// addRun adds one engine run's work.
func (c *counters) addRun(r *hm.RunResult) {
	m := r.Metrics
	c.refs += hm.SimulatedRefs(r)
	c.llcAccesses += m["llc_accesses"]
	c.llcMisses += m["llc_misses"]
	c.lastHits += m["pagetable_last_hits"]
	c.placements += m["pagetable_placements"]
	c.arenaReuses += m["arena_reuses"]
	c.pebsSamples += m["pebs_samples"]
}

// addOnline adds one online-placer run's work, engine counts included.
func (c *counters) addOnline(r *hm.RunResult) {
	c.addRun(r)
	c.onlineRefs += hm.SimulatedRefs(r)
	c.epochs += r.Epochs
	c.resolves += r.Metrics["solver_resolves"]
	c.warmHits += r.Metrics["solver_warm_hits"]
	c.migrations += r.Migrations
	c.migratedBytes += r.MigratedBytes
}

// report writes the counts as per-layer metrics.
func (c *counters) report(m map[string]float64) {
	m["engine.refs"] = float64(c.refs)
	m["cache.llc_accesses"] = float64(c.llcAccesses)
	m["cache.llc_misses"] = float64(c.llcMisses)
	if c.llcAccesses > 0 {
		m["cache.llc_miss_ratio"] = float64(c.llcMisses) / float64(c.llcAccesses)
	}
	m["mem.pagetable_last_hits"] = float64(c.lastHits)
	m["mem.pagetable_placements"] = float64(c.placements)
	m["alloc.arena_reuses"] = float64(c.arenaReuses)
	m["pebs.samples"] = float64(c.pebsSamples)
	m["online.epochs"] = float64(c.epochs)
	m["online.resolves"] = float64(c.resolves)
	m["online.warm_hits"] = float64(c.warmHits)
	m["online.migrations"] = float64(c.migrations)
	m["online.migrated_mb"] = float64(c.migratedBytes) / float64(hm.MB)
	m["paramedir.calls"] = float64(c.analyzeCalls)
	m["advisor.calls"] = float64(c.adviseCalls)
}

// Span names of the layer calls.
const (
	spanPass     = "pass"
	spanProfile  = "profile"
	spanAnalyze  = "analyze"
	spanGreedy   = "advise.greedy"
	spanExact    = "advise.exact"
	spanExecute  = "execute"
	spanBaseline = "baseline"
	spanOnline   = "online"
)

// stages calls the library's public entry points one at a time, each
// inside a span under parent, and counts their work into c. With a
// nil tracer it is the plain calls plus the counting.
type stages struct {
	tr     *tracer
	parent int
	c      *counters
}

func (s stages) profile(w *hm.Workload, cfg hm.ProfileConfig) (*hm.Trace, *hm.RunResult, error) {
	id := s.tr.begin(spanProfile, s.parent, 0)
	trace, run, err := hm.Profile(w, cfg)
	s.tr.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("profile %s: %w", w.Name, err)
	}
	s.c.addRun(run)
	return trace, run, nil
}

func (s stages) analyze(trace *hm.Trace) (*hm.ObjectProfile, error) {
	id := s.tr.begin(spanAnalyze, s.parent, 0)
	prof, err := hm.Analyze(trace)
	s.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	s.c.analyzeCalls++
	return prof, nil
}

// advise runs the two-tier advisor, inside an exact or a greedy span
// by the strategy's name.
func (s stages) advise(prof *hm.ObjectProfile, budget int64, strat hm.Strategy) (*hm.PlacementReport, error) {
	name := spanGreedy
	if strings.HasPrefix(strat.Name(), "exact") {
		name = spanExact
	}
	id := s.tr.begin(name, s.parent, 0)
	rep, err := hm.Advise(prof, budget, strat)
	s.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("advise %s: %w", strat.Name(), err)
	}
	s.c.adviseCalls++
	return rep, nil
}

func (s stages) execute(w *hm.Workload, rep *hm.PlacementReport, cfg hm.ExecuteConfig) (*hm.RunResult, error) {
	id := s.tr.begin(spanExecute, s.parent, 0)
	run, err := hm.Execute(w, rep, hm.InterposeOptions{}, cfg)
	s.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("execute %s: %w", w.Name, err)
	}
	s.c.addRun(run)
	return run, nil
}

func (s stages) baseline(w *hm.Workload, b hm.Baseline, cfg hm.ExecuteConfig) (*hm.RunResult, error) {
	id := s.tr.begin(spanBaseline, s.parent, 0)
	run, err := hm.RunBaseline(w, b, cfg)
	s.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("baseline %s %s: %w", w.Name, b, err)
	}
	s.c.addRun(run)
	return run, nil
}

func (s stages) online(w *hm.Workload, cfg hm.OnlineConfig) (*hm.RunResult, error) {
	id := s.tr.begin(spanOnline, s.parent, 0)
	run, err := hm.RunOnline(w, cfg)
	s.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("online %s: %w", w.Name, err)
	}
	s.c.addOnline(run)
	return run, nil
}

// reportLayerTimes writes the engine, paramedir and advisor host times
// per root span named root, and the unattributed share of the traced
// passes. c holds the work of one such root span.
func reportLayerTimes(tr *tracer, root string, c *counters, m map[string]float64) {
	lt := tr.byName()
	passes := float64(lt[root].calls)
	if passes == 0 {
		return
	}
	perPass := func(name string) float64 { return float64(lt[name].self) / 1e9 / passes }
	m["engine.profile_s"] = perPass(spanProfile)
	m["engine.execute_s"] = perPass(spanExecute)
	m["engine.baseline_s"] = perPass(spanBaseline)
	m["engine.online_s"] = perPass(spanOnline)
	engineS := m["engine.profile_s"] + m["engine.execute_s"] + m["engine.baseline_s"] + m["engine.online_s"]
	if c.refs > 0 {
		m["engine.ns_per_ref"] = engineS * 1e9 / float64(c.refs)
	}
	if c.onlineRefs > 0 {
		m["online.ns_per_ref"] = m["engine.online_s"] * 1e9 / float64(c.onlineRefs)
	}
	m["paramedir.analyze_s"] = perPass(spanAnalyze)
	m["advisor.greedy_us"] = perCallUS(lt[spanGreedy])
	m["advisor.exact_us"] = perCallUS(lt[spanExact])
	m["trace.unattributed_frac"] = tr.unattributed(spanPass)
}

// perCallUS is a span name's mean self time per call in microseconds.
func perCallUS(lt layerTime) float64 {
	if lt.calls == 0 {
		return 0
	}
	return float64(lt.self) / 1e3 / float64(lt.calls)
}

// fitsBudget reports whether a two-tier report was made for budget and
// its entries fit in it.
func fitsBudget(rep *hm.PlacementReport, budget int64) bool {
	if rep == nil || rep.Budget != budget {
		return false
	}
	var used int64
	for _, e := range rep.Entries {
		if e.PartSize > 0 {
			used += e.PartSize
		} else {
			used += e.Size
		}
	}
	return used <= budget
}
