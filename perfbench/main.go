// Command perfbench is the repository's benchmark. It runs one workload
// of the placement pipeline for a fixed time, checks every output it
// produces, and prints as its last line one JSON object with the
// metrics by name and unit. With -trace 0 it reports the end-to-end
// metrics; with -trace 1 it records spans around every call into a
// layer and reports the per-layer metrics instead. README.md describes
// the workloads, the metrics and which layer should move which metric.
//
//	bash perfbench/run.sh --workload fig4-sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outDir holds everything a run writes (span files, advisord caches),
// relative to the directory the benchmark runs in.
const outDir = ".bench_build/perfbench"

// setupReps is how many times a run sets its workload up; setup_s is
// the median of their CPU times, scaled by the yardstick.
const setupReps = 5

// options are one run's settings.
type options struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	// workers is the sweep pool size, the advisord client count and
	// the daemon's worker slots: the host's CPU count.
	workers int
	// scale multiplies every simulated input size; 1 is the benchmark.
	// Tests shrink it to keep in-process runs short.
	scale float64
	// dir receives everything the run writes (outDir, or a test's
	// temporary directory).
	dir string
	// clock, when non-nil, times further set-ups and the yardstick
	// between the timed passes.
	clock *runClock
}

// outcome is what a workload reports: attempted and failed operations
// plus its metrics by name.
type outcome struct {
	attempted int64
	failed    int64
	metrics   map[string]float64
	// info holds sample counts and pass counts, printed beside the
	// result but not as metrics: they depend on how many passes fit
	// into the run.
	info map[string]float64
	// passCPU is the untraced passes' median CPU seconds, and passRefs
	// the references one pass simulates.
	passCPU  float64
	passRefs int64
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, info: map[string]float64{}}
}

// maxLogged bounds how many failed checks a run logs.
const maxLogged = 20

// check counts one correctness check; a failed one counts toward
// failed, and the first maxLogged are logged.
func (o *outcome) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	o.failed++
	if o.failed <= maxLogged {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// workload is one benchmark workload.
type workload interface {
	// refScale is the simulated input size the workload runs at.
	refScale(o options) float64
	// setup builds the inputs from the seed and runs one untimed
	// warm-up pass at reduced size.
	setup(o options) error
	// run measures for o.seconds and fills the end-to-end metrics
	// (untraced) or the per-layer metrics (traced).
	run(o options, tr *tracer, out *outcome) error
}

var workloads = map[string]func() workload{
	"fig4-sweep":        func() workload { return &fig4{} },
	"online-phaseshift": func() workload { return &onlineBench{} },
	"advisord-mix":      func() workload { return &mix{} },
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "how long the run measures")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		workers: runtime.NumCPU(),
		scale:   1,
		dir:     outDir,
	}
	man := newManifest(*name, o, mk().refScale(o))
	res, info, spans, err := measure(mk, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if spans != nil {
		path := filepath.Join(o.dir, "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := spans.writeFile(path, man); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		info["spans_written"] = float64(len(spans.spans))
	}
	enc := json.NewEncoder(stdout)
	_ = enc.Encode(map[string]any{"manifest": man})
	_ = enc.Encode(map[string]any{"info": info})
	_ = enc.Encode(res)
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure sets the workload up, runs it and assembles the result: the
// end-to-end metrics untraced, the per-layer metrics traced. It
// returns the tracer when the run was traced.
func measure(mk func() workload, o options) (result, map[string]float64, *tracer, error) {
	w := mk()
	start := cpuSeconds()
	if err := w.setup(o); err != nil {
		return result{}, nil, nil, fmt.Errorf("setup: %w", err)
	}
	if !o.traced {
		o.clock = newRunClock(mk, o, cpuSeconds()-start)
		defer os.RemoveAll(o.clock.o.dir)
	}
	out := newOutcome()
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	if err := w.run(o, tr, out); err != nil {
		return result{}, nil, nil, err
	}
	if c := o.clock; c != nil {
		if err := c.due(o.seconds); err != nil {
			return result{}, nil, nil, err
		}
		// slow is how much slower than the reference machine the host
		// ran the yardstick during this run.
		slow := median(c.yard) / yardstickRefS
		out.metrics["setup_s"] = median(c.times) / slow
		out.metrics["norm_cpu_s"] = out.passCPU / slow
		out.metrics["sim_refs_per_norm_cpu_s"] = float64(out.passRefs) / out.metrics["norm_cpu_s"]
		out.info["setup_cpu_s"] = median(c.times)
		out.info["cpu_s"] = out.passCPU
		out.info["yardstick_s"] = median(c.yard)
	}
	out.metrics["peak_rss_mb"] = peakRSSMB()
	if out.attempted < 1 {
		return result{}, nil, nil, fmt.Errorf("no operation attempted")
	}

	table := endToEnd
	if o.traced {
		table = perLayer
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(table)),
	}
	for _, m := range table {
		res.Metrics[m.name] = metric{Value: out.metrics[m.name], Unit: m.unit}
	}
	return res, out.info, tr, nil
}

// metricDef names one reported metric and its unit; the tables below
// match BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"norm_cpu_s", "s"},
	{"sim_refs_per_norm_cpu_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"sweep.cells", "count"},
	{"sweep.profiles", "count"},
	{"sweep.wall_s", "s"},
	{"sweep.busy_s", "s"},
	{"sweep.pool_util", "ratio"},
	{"engine.profile_s", "s"},
	{"engine.execute_s", "s"},
	{"engine.baseline_s", "s"},
	{"engine.online_s", "s"},
	{"engine.refs", "count"},
	{"engine.ns_per_ref", "ns"},
	{"cache.llc_accesses", "count"},
	{"cache.llc_misses", "count"},
	{"cache.llc_miss_ratio", "ratio"},
	{"mem.pagetable_last_hits", "count"},
	{"mem.pagetable_placements", "count"},
	{"alloc.arena_reuses", "count"},
	{"pebs.samples", "count"},
	{"paramedir.calls", "count"},
	{"paramedir.analyze_s", "s"},
	{"advisor.calls", "count"},
	{"advisor.greedy_us", "us"},
	{"advisor.exact_us", "us"},
	{"online.epochs", "count"},
	{"online.resolves", "count"},
	{"online.warm_hits", "count"},
	{"online.migrations", "count"},
	{"online.migrated_mb", "MB"},
	{"online.ns_per_ref", "ns"},
	{"advisord.miss", "count"},
	{"advisord.hit_mem", "count"},
	{"advisord.hit_disk", "count"},
	{"advisord.session", "count"},
	{"advisord.miss_p50_ms", "ms"},
	{"advisord.hit_mem_p50_ms", "ms"},
	{"advisord.hit_disk_p50_ms", "ms"},
	{"advisord.session_p50_ms", "ms"},
	{"advisord.req_p50_ms", "ms"},
	{"advisord.req_p99_ms", "ms"},
	{"advisord.req_per_s", "1/s"},
	{"advisord.profiles_computed", "count"},
	{"advisord.advises_computed", "count"},
	{"advisord.cache_puts", "count"},
	{"quality.fom_vs_ddr_pct", "%"},
	{"quality.paper_winners", "count"},
	{"quality.online_vs_static_pct", "%"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.overhead_pct", "%"},
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuSeconds is the CPU time the process has used so far, user and
// system, in every thread. Unlike host time it leaves out the time the
// hypervisor gives the machine's CPUs to other tenants (steal).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// manifest identifies the run: toolchain, host and inputs.
type manifest struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	RefScale   float64 `json:"ref_scale"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
}

func newManifest(name string, o options, refScale float64) manifest {
	return manifest{
		Workload:   name,
		Seed:       o.seed,
		Seconds:    o.seconds.Seconds(),
		Traced:     o.traced,
		RefScale:   refScale,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runClock times an untraced run's set-ups and its yardstick. It
// makes set-ups of fresh workload instances spread evenly over the
// timed passes, because the host's speed drifts over tens of seconds
// and set-ups made back to back at the start would sample only its
// first few seconds, and records each one's CPU seconds. Before the
// first pass and after every pass it runs the yardstick.
type runClock struct {
	mk    func() workload
	o     options // the run's options, writing into a directory of their own
	times []float64
	yard  []float64
}

// newRunClock starts the clock with the measured instance's set-up CPU
// time.
func newRunClock(mk func() workload, o options, first float64) *runClock {
	o.dir = filepath.Join(o.dir, "setup")
	return &runClock{mk: mk, o: o, times: []float64{first}}
}

// due times the set-ups that fall due once measured of the run's
// seconds have been timed: setupReps in all, at even steps from the
// start to the end of the run.
func (c *runClock) due(measured time.Duration) error {
	if c == nil {
		return nil
	}
	for n := len(c.times); n < setupReps && measured >= time.Duration(n)*c.o.seconds/(setupReps-1); n++ {
		start := cpuSeconds()
		if err := c.mk().setup(c.o); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		c.times = append(c.times, cpuSeconds()-start)
	}
	return nil
}

// gauge runs the yardstick once and records its CPU seconds.
func (c *runClock) gauge() {
	if c != nil {
		c.yard = append(c.yard, yardstick())
	}
}

// passTimes are the host and CPU seconds of each timed pass.
type passTimes struct{ wall, cpu []float64 }

// timePasses runs pass until the passes have taken o.seconds of host
// time and at least atLeast have run, and returns each pass's host and
// CPU seconds. Between passes it runs the yardstick and makes the
// set-ups o.clock has due; their time does not count toward o.seconds.
func timePasses(o options, atLeast int, pass func() error) (passTimes, error) {
	var pt passTimes
	var measured time.Duration
	o.clock.gauge()
	for len(pt.wall) < atLeast || measured < o.seconds {
		t, c := time.Now(), cpuSeconds()
		if err := pass(); err != nil {
			return pt, err
		}
		d := time.Since(t)
		pt.cpu = append(pt.cpu, cpuSeconds()-c)
		pt.wall = append(pt.wall, d.Seconds())
		measured += d
		o.clock.gauge()
		if err := o.clock.due(measured); err != nil {
			return pt, err
		}
	}
	return pt, nil
}

// alternate runs untraced and traced passes in turn until d has
// elapsed and at least atLeast of each have run, and returns the host
// seconds of each kind. Alternating keeps host-speed drift out of the
// overhead figure.
func alternate(d time.Duration, tr *tracer, atLeast int, pass func(tr *tracer) error) (plain, traced []float64, err error) {
	start := time.Now()
	for len(traced) < atLeast || time.Since(start) < d {
		for _, t := range []*tracer{nil, tr} {
			begin := time.Now()
			if err := pass(t); err != nil {
				return nil, nil, err
			}
			if t == nil {
				plain = append(plain, time.Since(begin).Seconds())
			} else {
				traced = append(traced, time.Since(begin).Seconds())
			}
		}
	}
	return plain, traced, nil
}

// reportPasses records the untraced passes' median CPU time and the
// references one pass simulates, from which measure derives the
// end-to-end metrics. The passes' median host time, which moves with
// the steal the machine's other tenants cause, goes to the info line
// as wall_s.
func reportPasses(out *outcome, pt passTimes, refs int64) {
	out.passCPU, out.passRefs = median(pt.cpu), refs
	out.info["passes"] = float64(len(pt.wall))
	out.info["wall_s"] = median(pt.wall)
}

// overheadPct is the traced passes' median host time over the
// untraced passes' median, in percent above 100.
func overheadPct(plain, traced []float64) float64 {
	return 100 * (median(traced)/median(plain) - 1)
}
