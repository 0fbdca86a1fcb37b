package main

import (
	"fmt"
	"math/rand/v2"

	hm "repro"
)

// online-phaseshift: one-at-a-time RunOnline calls on phaseshift
// across budgets and epoch lengths, the static pipeline and DDR runs
// they are judged against, and stable Table I applications on which
// the migration gate must refuse every move.

const (
	// onlineScale is the workload's simulated input size. Below it the
	// online placer's migrations amortize less and the gate moves
	// less, so phaseshift runs at full size.
	onlineScale = 1.0
	// phaseshiftApp is the workload whose hot set moves.
	phaseshiftApp = "phaseshift"
)

var (
	phaseshiftBudgets = []int64{8 * hm.MB, 16 * hm.MB}
	// phaseshiftEpochs are epoch lengths in iterations; phaseshift's
	// hot group rotates every 5 iterations.
	phaseshiftEpochs = []int{1, 3}
	// stableApps are Table I applications whose hot set never moves:
	// the gate must migrate nothing.
	stableApps = []string{"hpcg", "minife", "cgpop"}
)

// onlineStep is one call of the workload's list.
type onlineStep struct {
	kind   string // "online", "ddr" or "static"
	w      *hm.Workload
	m      hm.Machine
	budget int64 // online: the placer's budget
	every  int   // online: epoch length in iterations
}

func (s onlineStep) label() string {
	if s.kind == "online" {
		return fmt.Sprintf("%s/online@%dMB/every%d", s.w.Name, s.budget/hm.MB, s.every)
	}
	return s.w.Name + "/" + s.kind
}

type onlineBench struct {
	scale float64
	steps []onlineStep
	first []float64 // the first measured pass's FOMs, in step order
}

func (b *onlineBench) refScale(o options) float64 { return onlineScale * o.scale }

// onlineSteps builds the call list in an order shuffled by seed.
func onlineSteps(seed uint64) ([]onlineStep, error) {
	ps, err := hm.WorkloadByName(phaseshiftApp)
	if err != nil {
		return nil, err
	}
	pm := hm.MachineFor(ps)
	steps := []onlineStep{
		{kind: "ddr", w: ps, m: pm},
		{kind: "static", w: ps, m: pm},
	}
	for _, budget := range phaseshiftBudgets {
		for _, every := range phaseshiftEpochs {
			steps = append(steps, onlineStep{kind: "online", w: ps, m: pm, budget: budget, every: every})
		}
	}
	for _, name := range stableApps {
		w, err := hm.WorkloadByName(name)
		if err != nil {
			return nil, err
		}
		m := hm.MachineFor(w)
		budgets := hm.BudgetsFor(w)
		steps = append(steps,
			onlineStep{kind: "ddr", w: w, m: m},
			onlineStep{kind: "online", w: w, m: m, budget: budgets[len(budgets)-1], every: 1})
	}
	rng := rand.New(rand.NewPCG(seed, 0x0411e))
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	return steps, nil
}

func (b *onlineBench) setup(o options) error {
	steps, err := onlineSteps(o.seed)
	if err != nil {
		return err
	}
	warm := &onlineBench{scale: b.refScale(o) / warmupDiv, steps: steps}
	if _, _, err := warm.pass(nil, newOutcome()); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	b.scale, b.steps, b.first = b.refScale(o), steps, nil
	return nil
}

// onlineFOMs are one pass's simulated results.
type onlineFOMs struct {
	all    []float64          // every run's FOM in step order, static runs by budget
	ddr    map[string]float64 // app -> DDR FOM
	static map[int64]float64  // phaseshift budget -> static pipeline FOM
	online []onlineStep
	fom    []float64 // FOM of online[i]
}

// pass runs the call list once, each call inside a span, and checks
// every result.
func (b *onlineBench) pass(tr *tracer, out *outcome) (onlineFOMs, counters, error) {
	var c counters
	root := tr.begin(spanPass, 0, 0)
	defer tr.end(root)
	st := stages{tr: tr, parent: root, c: &c}
	r := onlineFOMs{ddr: map[string]float64{}, static: map[int64]float64{}}
	for _, s := range b.steps {
		switch s.kind {
		case "ddr":
			out.attempted++
			run, err := st.baseline(s.w, hm.BaselineDDR, hm.ExecuteConfig{Machine: s.m, Seed: simSeed, RefScale: b.scale})
			if err != nil {
				return r, c, err
			}
			r.ddr[s.w.Name] = run.FOM
			r.all = append(r.all, run.FOM)
		case "static":
			if err := b.static(st, s, &r, out); err != nil {
				return r, c, err
			}
		case "online":
			out.attempted++
			run, err := st.online(s.w, hm.OnlineConfig{
				Machine: s.m, Seed: simSeed, RefScale: b.scale, Budget: s.budget, EveryIterations: s.every,
			})
			if err != nil {
				return r, c, err
			}
			if s.w.Name != phaseshiftApp {
				out.check(run.MigratedBytes == 0, "%s: the gate migrated %d bytes on a stable application", s.label(), run.MigratedBytes)
			}
			r.online = append(r.online, s)
			r.fom = append(r.fom, run.FOM)
			r.all = append(r.all, run.FOM)
		}
	}
	if b.first == nil {
		b.first = r.all
	}
	out.check(len(r.all) == len(b.first), "pass produced %d results, the first pass %d", len(r.all), len(b.first))
	for i := range r.all {
		if i < len(b.first) {
			out.check(r.all[i] == b.first[i], "result %d: FOM %v differs from the first pass's %v", i, r.all[i], b.first[i])
		}
	}
	return r, c, nil
}

// static runs the static pipeline on phaseshift through the stage
// functions: one profile, then one advise and execute per budget.
func (b *onlineBench) static(st stages, s onlineStep, r *onlineFOMs, out *outcome) error {
	trace, _, err := st.profile(s.w, hm.ProfileConfig{Machine: s.m, Seed: simSeed, RefScale: b.scale})
	if err != nil {
		return err
	}
	prof, err := st.analyze(trace)
	if err != nil {
		return err
	}
	for _, budget := range phaseshiftBudgets {
		out.attempted++
		rep, err := st.advise(prof, budget, hm.StrategyMisses(0))
		if err != nil {
			return err
		}
		out.check(fitsBudget(rep, budget), "%s: report does not fit %d bytes", s.label(), budget)
		run, err := st.execute(s.w, rep, hm.ExecuteConfig{Machine: s.m, Seed: simSeed + executeSeedOffset, RefScale: b.scale})
		if err != nil {
			return err
		}
		r.static[budget] = run.FOM
		r.all = append(r.all, run.FOM)
	}
	return nil
}

// quality returns the online placer's FOM over the static pipeline's
// on phaseshift and over DDR on every application, as geometric means
// in percent.
func (r onlineFOMs) quality() (vsStatic, vsDDR float64) {
	var st, ddr []float64
	for i, s := range r.online {
		if s.w.Name == phaseshiftApp {
			st = append(st, r.fom[i]/r.static[s.budget])
		}
		ddr = append(ddr, r.fom[i]/r.ddr[s.w.Name])
	}
	return 100 * geomean(st), 100 * geomean(ddr)
}

func (b *onlineBench) run(o options, tr *tracer, out *outcome) error {
	var r onlineFOMs
	var c counters
	pass := func(t *tracer) error {
		var err error
		r, c, err = b.pass(t, out)
		return err
	}
	m := out.metrics
	if tr == nil {
		pt, err := timePasses(o, 2, func() error { return pass(nil) })
		if err != nil {
			return err
		}
		reportPasses(out, pt, c.refs)
		return nil
	}
	plain, traced, err := alternate(o.seconds, tr, 1, pass)
	if err != nil {
		return err
	}
	c.report(m)
	reportLayerTimes(tr, spanPass, &c, m)
	m["trace.overhead_pct"] = overheadPct(plain, traced)
	m["quality.online_vs_static_pct"], m["quality.fom_vs_ddr_pct"] = r.quality()
	out.info["passes_untraced"] = float64(len(plain))
	out.info["passes_traced"] = float64(len(traced))
	return nil
}
