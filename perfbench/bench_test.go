package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// smallScale shrinks each workload's inputs so an in-process run takes
// seconds, not minutes.
var smallScale = map[string]float64{
	"fig4-sweep":        0.04,
	"online-phaseshift": 0.05,
	"advisord-mix":      0.2,
}

// Every count-valued per-layer metric, and every exact quality metric,
// repeats bit for bit across two in-process runs: a change in one is a
// change in behaviour, never noise.
func TestCountMetricsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	exact := map[string]bool{}
	for _, m := range perLayer {
		if m.unit == "count" || strings.HasPrefix(m.name, "quality.") {
			exact[m.name] = true
		}
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			var runs [2]result
			for i := range runs {
				o := options{
					seed: 5, seconds: time.Millisecond, traced: true,
					workers: 2, scale: smallScale[name], dir: t.TempDir(),
				}
				res, _, _, err := measure(workloads[name], o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("run %d: %d of %d failed", i, res.Failed, res.Attempted)
				}
				runs[i] = res
			}
			nonzero := 0
			for m := range exact {
				a, b := runs[0].Metrics[m].Value, runs[1].Metrics[m].Value
				if a != b {
					t.Errorf("%s: %v then %v", m, a, b)
				}
				if a != 0 {
					nonzero++
				}
			}
			if nonzero == 0 {
				t.Error("no exact metric is non-zero")
			}
		})
	}
}

// The metric tables the program prints are the ones BENCHMARK.json
// declares, in the same order and with the same units.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %v, BENCHMARK.json %v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, workloadNames())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig4-sweep", "--trace", "2"},
		{"--workload", "fig4-sweep", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want a non-zero exit and no result", args, code, out.String())
		}
	}
}

// countingWorkload counts its set-ups.
type countingWorkload struct{ n *int }

func (countingWorkload) refScale(options) float64             { return 1 }
func (w countingWorkload) setup(options) error                { *w.n++; return nil }
func (countingWorkload) run(options, *tracer, *outcome) error { return nil }

// The run clock makes setupReps set-ups in all, the first at the
// start and the others at even steps through the timed passes.
func TestRunClockSpreadsSetups(t *testing.T) {
	n := 0
	mk := func() workload { return countingWorkload{&n} }
	c := newRunClock(mk, options{seconds: 8 * time.Second, dir: t.TempDir()}, 0.5)
	for _, step := range []struct {
		measured time.Duration
		want     int
	}{
		{0, 1}, {time.Second, 1}, {2 * time.Second, 2}, {3 * time.Second, 2},
		{6 * time.Second, 4}, {8 * time.Second, 5}, {20 * time.Second, 5},
	} {
		if err := c.due(step.measured); err != nil {
			t.Fatal(err)
		}
		if len(c.times) != step.want || n != step.want-1 {
			t.Errorf("after %v: %d set-up times, %d fresh set-ups; want %d and %d", step.measured, len(c.times), n, step.want, step.want-1)
		}
	}
	if c.times[0] != 0.5 {
		t.Errorf("first set-up time %v, want the measured instance's 0.5", c.times[0])
	}
}
