package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"time"

	hm "repro"
)

// advisord-mix: an in-process advisory daemon on loopback with its
// artifact cache in a temporary directory, driven by a closed loop of
// one client per CPU, each waiting for its reply. Each pass starts a daemon over an empty cache,
// runs every client's first leg, then starts a fresh daemon over the
// same directory and runs the restart leg. Clients own disjoint
// applications and seeds, so every response's cache attribution is
// known in advance and checked.

const (
	// mixScale is the simulated input size of the profiles the daemon
	// computes on a miss. At full size those profiles are about 70 % of
	// a pass's request time. The decode-bound requests slow down far
	// more than the engine when the machine's other tenants are busy,
	// and smaller profiles left them dominating the pass time, which
	// then spread by 30 % from run to run.
	mixScale = 1.0
	// minRequests is the fewest requests a run measures, so that at
	// least minBeyond samples lie beyond req_p99_ms.
	minRequests = 1000
)

var (
	// mixBudgets × mixStrategies are the named-workload advises per
	// profile, each issued twice: a miss, then an in-memory hit.
	mixBudgets    = []int64{32 * hm.MB, 128 * hm.MB}
	mixStrategies = []string{"misses", "density", "exact"}
	// sessionBudget is the budget of the session advises that follow
	// an upload-profile, one per strategy. It differs from mixBudgets,
	// so the daemon computes their reports.
	sessionBudget = int64(64 * hm.MB)
)

// Request classes. The list fixes each class's share of a pass.
const (
	classMiss    = "miss"     // first named advise of a (profile, budget, strategy)
	classHitMem  = "hit-mem"  // its repeat against the same daemon
	classUpload  = "upload"   // upload-profile of a client-side profile
	classSession = "session"  // advise on the uploaded profile
	classHitDisk = "hit-disk" // named advise against the restarted daemon
)

// expectCache is each advise class's cache attribution. A session
// advise reuses the uploaded profile but computes a new report.
var expectCache = map[string]string{
	classMiss:    hm.AdvisorCacheMiss,
	classHitMem:  hm.AdvisorCacheHitMem,
	classSession: hm.AdvisorCacheMiss,
	classHitDisk: hm.AdvisorCacheHitDisk,
}

// mixProfile is one client-owned profiling configuration.
type mixProfile struct {
	app    string
	params hm.AdvisorProfileParams
	csv    []byte // the profile the client uploads
	refs   int64  // references its profiling run simulates
}

// mixReq is one request of a client's list.
type mixReq struct {
	class  string
	prof   int // index into mix.profiles
	budget int64
	strat  string
}

type mix struct {
	workers  int
	scale    float64
	dir      string             // parent of the per-pass cache directories
	profiles []mixProfile       // every client's profiles
	lists    [][2][]mixReq      // per client: first leg, restart leg
	perPass  map[string]int     // requests per class in one pass
	want     map[wantKey][]byte // reference reports
	stats    hm.AdvisorStats    // daemon counters of the last pass
}

type wantKey struct {
	prof   int
	budget int64
	strat  string
}

func (x *mix) refScale(o options) float64 { return mixScale * o.scale }

func (x *mix) setup(o options) error {
	x.workers, x.scale = o.workers, x.refScale(o)
	dir, err := filepath.Abs(filepath.Join(o.dir, "advisord"))
	if err != nil {
		return err
	}
	// Each pass leaves its cache directory behind, so that deleting it
	// is not timed; the next set-up, or the end of the run, removes
	// them all.
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	x.dir = dir
	if err := x.buildInputs(o.seed); err != nil {
		return err
	}
	x.want = nil
	if _, err := x.pass(nil, newOutcome(), nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// buildInputs generates every client's profiles and request lists from
// the seed. Each Table I application belongs to one client, so no two
// clients can share a report: an application's profile, and so its
// reports, can be the same under two seeds. With more CPUs than
// applications the extra clients stay idle. The profiles a client
// uploads are computed here: they are the client's input, not the
// daemon's work.
func (x *mix) buildInputs(seed uint64) error {
	var apps []string
	for _, w := range hm.Workloads() {
		apps = append(apps, w.Name)
	}
	rng := rand.New(rand.NewPCG(seed, 0xad5))
	clients := min(x.workers, len(apps))
	x.profiles = nil
	x.lists = make([][2][]mixReq, clients)
	x.perPass = map[string]int{}
	for i, a := range rng.Perm(len(apps)) {
		c := i % clients
		p := len(x.profiles)
		mp, err := clientProfile(apps[a], seed*64+uint64(a)+1, x.scale)
		if err != nil {
			return err
		}
		x.profiles = append(x.profiles, mp)
		var named []mixReq
		for _, b := range mixBudgets {
			for _, s := range mixStrategies {
				named = append(named, mixReq{prof: p, budget: b, strat: s})
			}
		}
		first := x.lists[c][0]
		for _, class := range []string{classMiss, classHitMem} {
			for _, j := range rng.Perm(len(named)) {
				r := named[j]
				r.class = class
				first = append(first, r)
			}
		}
		first = append(first, mixReq{class: classUpload, prof: p})
		for _, s := range mixStrategies {
			first = append(first, mixReq{class: classSession, prof: p, budget: sessionBudget, strat: s})
		}
		x.lists[c][0] = first
		for _, r := range named {
			r.class = classHitDisk
			x.lists[c][1] = append(x.lists[c][1], r)
		}
	}
	for c := range x.lists {
		restart := x.lists[c][1]
		rng.Shuffle(len(restart), func(i, j int) { restart[i], restart[j] = restart[j], restart[i] })
		for _, leg := range x.lists[c] {
			for _, r := range leg {
				x.perPass[r.class]++
			}
		}
	}
	return nil
}

// clientProfile profiles app the way the daemon would and keeps the
// Paramedir CSV a client uploads.
func clientProfile(app string, seed uint64, scale float64) (mixProfile, error) {
	w, err := hm.WorkloadByName(app)
	if err != nil {
		return mixProfile{}, err
	}
	trace, run, err := hm.Profile(w, hm.ProfileConfig{Machine: hm.MachineFor(w), Seed: seed, RefScale: scale})
	if err != nil {
		return mixProfile{}, fmt.Errorf("profile %s: %w", app, err)
	}
	prof, err := hm.Analyze(trace)
	if err != nil {
		return mixProfile{}, fmt.Errorf("analyze %s: %w", app, err)
	}
	var csv bytes.Buffer
	if err := prof.WriteCSV(&csv); err != nil {
		return mixProfile{}, err
	}
	return mixProfile{
		app:    app,
		params: hm.AdvisorProfileParams{Seed: seed, RefScale: scale},
		csv:    csv.Bytes(),
		refs:   hm.SimulatedRefs(run),
	}, nil
}

// reference computes every report the daemon should serve, in
// process, through Profile, Analyze and Advise: the advisord
// LocalAdvise reference. It returns the work counts of the
// computation, which is the daemon's cold-path work for one pass.
func (x *mix) reference(tr *tracer) (counters, error) {
	var c counters
	root := tr.begin("reference", 0, 0)
	defer tr.end(root)
	st := stages{tr: tr, parent: root, c: &c}
	x.want = map[wantKey][]byte{}
	for i, p := range x.profiles {
		w, err := hm.WorkloadByName(p.app)
		if err != nil {
			return c, err
		}
		trace, _, err := st.profile(w, hm.ProfileConfig{Machine: hm.MachineFor(w), Seed: p.params.Seed, RefScale: p.params.RefScale})
		if err != nil {
			return c, err
		}
		prof, err := st.analyze(trace)
		if err != nil {
			return c, err
		}
		uploaded, err := hm.ReadProfileCSV(bytes.NewReader(p.csv))
		if err != nil {
			return c, err
		}
		for _, s := range mixStrategies {
			for _, b := range mixBudgets {
				if x.want[wantKey{i, b, s}], err = adviseBytes(st, prof, b, s); err != nil {
					return c, err
				}
			}
			if x.want[wantKey{i, sessionBudget, s}], err = adviseBytes(st, uploaded, sessionBudget, s); err != nil {
				return c, err
			}
		}
	}
	return c, nil
}

func adviseBytes(st stages, prof *hm.ObjectProfile, budget int64, strategy string) ([]byte, error) {
	strat, err := hm.StrategyByName(strategy)
	if err != nil {
		return nil, err
	}
	rep, err := st.advise(prof, budget, strat)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// reqResult is one request's outcome; problem is empty when every
// check passed.
type reqResult struct {
	class   string
	ms      float64
	problem string
}

// latencies collects request latencies in milliseconds.
type latencies struct {
	all     []float64
	byClass map[string][]float64
}

// pass runs both legs once. It returns the summed daemon counters;
// lat, when non-nil, receives every request's latency.
func (x *mix) pass(tr *tracer, out *outcome, lat *latencies) (hm.AdvisorStats, error) {
	var total hm.AdvisorStats
	root := tr.begin(spanPass, 0, 0)
	defer tr.end(root)
	dir, err := os.MkdirTemp(x.dir, "cache-")
	if err != nil {
		return total, err
	}
	for leg := 0; leg < 2; leg++ {
		id := tr.begin("advisord.serve", root, 0)
		cache, err := hm.OpenArtifactCache(dir, nil)
		if err != nil {
			return total, err
		}
		srv, ln, err := hm.ServeAdvisor("127.0.0.1:0", hm.AdvisorServerConfig{Workers: x.workers, Cache: cache})
		tr.end(id)
		if err != nil {
			return total, err
		}
		addr := ln.Addr().String()
		results := make([][]reqResult, len(x.lists))
		var wg sync.WaitGroup
		for c := range x.lists {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				results[c] = x.client(tr, root, addr, c, leg)
			}(c)
		}
		wg.Wait()
		st, err := daemonStats(tr, root, addr)
		id = tr.begin("advisord.close", root, 0)
		srv.Close()
		tr.end(id)
		if err != nil {
			return total, err
		}
		total.Profiles += st.Profiles
		total.Advises += st.Advises
		total.Cache.Puts += st.Cache.Puts
		for _, rs := range results {
			for _, r := range rs {
				out.attempted++
				out.check(r.problem == "", "advisord %s request: %s", r.class, r.problem)
				if lat != nil {
					lat.all = append(lat.all, r.ms)
					lat.byClass[r.class] = append(lat.byClass[r.class], r.ms)
				}
			}
		}
	}
	return total, nil
}

// daemonStats fetches the daemon's counters with the stats op.
func daemonStats(tr *tracer, parent int, addr string) (*hm.AdvisorStats, error) {
	id := tr.begin("advisord.stats", parent, 0)
	defer tr.end(id)
	cl, err := hm.DialAdvisor(addr)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	return cl.Stats()
}

// client runs one client's list for one leg over its own connection,
// each request waiting for the previous reply.
func (x *mix) client(tr *tracer, parent int, addr string, c, leg int) []reqResult {
	reqs := x.lists[c][leg]
	res := make([]reqResult, len(reqs))
	cl, err := hm.DialAdvisor(addr)
	if err != nil {
		for i, r := range reqs {
			res[i] = reqResult{class: r.class, problem: "dial: " + err.Error()}
		}
		return res
	}
	defer cl.Close()
	for i, r := range reqs {
		id := tr.begin("advisord."+r.class, parent, (c*2+leg)*100000+i+1)
		start := time.Now()
		got, err := call(cl, x.profiles[r.prof], r)
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		tr.end(id)
		res[i] = reqResult{class: r.class, ms: ms, problem: x.verify(r, got, err)}
	}
	return res
}

// reply is what an advise returned.
type reply struct {
	cache  string
	bytes  []byte
	report *hm.PlacementReport
}

// call issues one request.
func call(cl *hm.AdvisorClient, p mixProfile, r mixReq) (reply, error) {
	switch r.class {
	case classUpload:
		_, err := cl.UploadProfile(p.csv)
		return reply{}, err
	case classSession:
		a, err := cl.Advise(r.budget, r.strat)
		if err != nil {
			return reply{}, err
		}
		return reply{a.Cache, a.ReportBytes, a.Report}, nil
	}
	a, err := cl.AdviseWorkload(p.app, "", p.params, r.budget, r.strat)
	if err != nil {
		return reply{}, err
	}
	return reply{a.Cache, a.ReportBytes, a.Report}, nil
}

// verify checks one response: no error, the expected cache
// attribution, the reference report bytes, and a report that fits its
// budget. It returns what is wrong, or "".
func (x *mix) verify(r mixReq, got reply, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case r.class == classUpload:
		return ""
	case got.cache != expectCache[r.class]:
		return fmt.Sprintf("cache attribution %q, want %q", got.cache, expectCache[r.class])
	case !fitsBudget(got.report, r.budget):
		return "report does not fit its budget"
	}
	if x.want != nil && !bytes.Equal(got.bytes, x.want[wantKey{r.prof, r.budget, r.strat}]) {
		return fmt.Sprintf("report for %s differs from the in-process advise", x.profiles[r.prof].app)
	}
	return ""
}

// requestsPerPass is the length of one pass's request list.
func (x *mix) requestsPerPass() int {
	n := 0
	for _, v := range x.perPass {
		n += v
	}
	return n
}

func (x *mix) run(o options, tr *tracer, out *outcome) error {
	defer os.RemoveAll(x.dir)
	refC, err := x.reference(tr)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	var refs int64
	for _, p := range x.profiles {
		refs += p.refs
	}
	minPasses := int(math.Ceil(float64(minRequests) / float64(x.requestsPerPass())))
	lat := &latencies{byClass: map[string][]float64{}}
	pass := func(t *tracer) error {
		var st hm.AdvisorStats
		var err error
		if t == nil {
			st, err = x.pass(nil, out, lat)
		} else {
			// Latencies come from the untraced passes.
			st, err = x.pass(t, out, nil)
		}
		x.stats = st
		return err
	}
	m := out.metrics
	if tr == nil {
		pt, err := timePasses(o, minPasses, func() error { return pass(nil) })
		if err != nil {
			return err
		}
		reportPasses(out, pt, refs)
	} else {
		walls, traced, err := alternate(o.seconds, tr, minPasses, pass)
		if err != nil {
			return err
		}
		refC.report(m)
		reportLayerTimes(tr, "reference", &refC, m)
		m["trace.overhead_pct"] = overheadPct(walls, traced)
		x.reportRequests(m, walls, lat)
		out.info["passes_untraced"] = float64(len(walls))
		out.info["passes_traced"] = float64(len(traced))
	}
	n := len(lat.all)
	_, beyond := percentile(lat.all, 99)
	out.check(tailOK(n, 99), "%d requests leave %d beyond p99, fewer than %d", n, beyond, minBeyond)
	out.info["requests"] = float64(n)
	out.info["requests_beyond_p99"] = float64(beyond)
	return nil
}

// reportRequests writes the request-layer metrics: per-pass class
// counts and daemon counters, and latency percentiles of the untraced
// passes.
func (x *mix) reportRequests(m map[string]float64, walls []float64, lat *latencies) {
	m["advisord.miss"] = float64(x.perPass[classMiss])
	m["advisord.hit_mem"] = float64(x.perPass[classHitMem])
	m["advisord.hit_disk"] = float64(x.perPass[classHitDisk])
	m["advisord.session"] = float64(x.perPass[classSession])
	m["advisord.miss_p50_ms"] = median(lat.byClass[classMiss])
	m["advisord.hit_mem_p50_ms"] = median(lat.byClass[classHitMem])
	m["advisord.hit_disk_p50_ms"] = median(lat.byClass[classHitDisk])
	m["advisord.session_p50_ms"] = median(lat.byClass[classSession])
	m["advisord.req_p50_ms"] = median(lat.all)
	m["advisord.req_p99_ms"], _ = percentile(lat.all, 99)
	m["advisord.req_per_s"] = float64(x.requestsPerPass()) / median(walls)
	m["advisord.profiles_computed"] = float64(x.stats.Profiles)
	m["advisord.advises_computed"] = float64(x.stats.Advises)
	m["advisord.cache_puts"] = float64(x.stats.Cache.Puts)
}
