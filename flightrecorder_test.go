package hybridmem_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	hm "repro"
	"repro/internal/units"
)

// parseTrace decodes a flight-recorder JSONL stream into one generic
// map per line, failing the test on anything that is not valid JSON.
func parseTrace(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var lines []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("trace line %d is not valid JSON: %v\n%s", len(lines)+1, err, sc.Text())
		}
		lines = append(lines, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// traceGrid is the small mixed grid the trace determinism test sweeps:
// two pipeline cells sharing one memoized profile, one cell with a
// private profile, a baseline and an online cell — every cell kind and
// both memo dispositions.
func traceGrid(t *testing.T) []hm.SweepPoint {
	t.Helper()
	w, err := hm.WorkloadByName("minife")
	if err != nil {
		t.Fatal(err)
	}
	m := hm.MachineFor(w)
	const scale = 0.1
	return []hm.SweepPoint{
		hm.BaselinePoint("ddr", w, hm.BaselineDDR, hm.ExecuteConfig{Machine: m, Seed: 21, RefScale: scale}),
		hm.PipelinePoint("m0@32M", w, hm.PipelineConfig{
			Machine: m, Seed: 21, Budget: 32 * units.MB, Strategy: hm.StrategyMisses(0), RefScale: scale,
		}),
		hm.PipelinePoint("density@128M", w, hm.PipelineConfig{
			Machine: m, Seed: 21, Budget: 128 * units.MB, Strategy: hm.StrategyDensity, RefScale: scale,
		}),
		hm.PipelinePoint("otherseed", w, hm.PipelineConfig{
			Machine: m, Seed: 77, Budget: 128 * units.MB, RefScale: scale,
		}),
		hm.OnlinePoint("online", w, hm.OnlineConfig{
			Machine: m, Seed: 21, RefScale: scale, Budget: 128 * units.MB,
		}),
	}
}

// TestSweepTraceDeterministic pins the flight recorder's parallel-sweep
// contract: the JSONL stream of a 4-worker sweep is identical to the
// serial sweep's, except for the cell events' "worker" and "wall_ns"
// fields — the only scheduling-dependent data in a trace.
func TestSweepTraceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("a traced sweep grid is not -short")
	}
	record := func(workers int) []map[string]any {
		var buf bytes.Buffer
		rec := hm.NewFlightRecorder(&buf)
		if _, err := hm.RunSweep(traceGrid(t), hm.SweepOptions{Workers: workers, Obs: rec}); err != nil {
			t.Fatal(err)
		}
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
		lines := parseTrace(t, &buf)
		for _, m := range lines {
			delete(m, "worker")
			delete(m, "wall_ns")
		}
		return lines
	}
	serial := record(1)
	parallel := record(4)
	if len(serial) == 0 {
		t.Fatal("traced sweep produced no events")
	}
	if !reflect.DeepEqual(serial, parallel) {
		for i := range serial {
			if i >= len(parallel) || !reflect.DeepEqual(serial[i], parallel[i]) {
				t.Fatalf("trace diverges at line %d:\nserial:   %v\nparallel: %v",
					i+1, serial[i], parallel[min(i, len(parallel)-1)])
			}
		}
		t.Fatalf("parallel trace has %d extra lines", len(parallel)-len(serial))
	}

	// The memo dispositions must reflect the canonical profile-sharing
	// structure: cells 1 and 2 share one profile (miss then hit), cell 3
	// has its own (miss), cells 0 and 4 have none.
	want := map[float64]string{0: "none", 1: "miss", 2: "hit", 3: "miss", 4: "none"}
	seen := 0
	for _, m := range serial {
		if m["ev"] != "cell" {
			continue
		}
		seen++
		cell, memo := m["cell"].(float64), m["memo"].(string)
		if memo != want[cell] {
			t.Errorf("cell %.0f: memo = %q, want %q", cell, memo, want[cell])
		}
	}
	if seen != 5 {
		t.Errorf("trace has %d cell events, want 5", seen)
	}
}

// TestOnlineGateTraceMatchesAccounting cross-checks the migration-gate
// events against the engine's own migration accounting: the sum of the
// ACCEPT events' moves and bytes must equal exactly what the run
// reports as migrated, on both the idle-priced and the
// contention-priced (shared-controller) machine — and the shared
// machine must show the gate actually refusing moves.
func TestOnlineGateTraceMatchesAccounting(t *testing.T) {
	w, err := hm.WorkloadByName("phaseshift")
	if err != nil {
		t.Fatal(err)
	}
	plain := hm.MachineFor(w)
	shared := hm.WithSharedControllers(plain, 1, hm.TierDDR, hm.TierMCDRAM)

	type gateTally struct {
		accepts, rejects int
		moves, moveBytes int64
	}
	run := func(m hm.Machine) (*hm.RunResult, gateTally) {
		var buf bytes.Buffer
		rec := hm.NewFlightRecorder(&buf)
		res, err := hm.RunOnline(w, hm.OnlineConfig{
			Machine: m, Seed: 21, Budget: 16 * units.MB, Obs: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		var tal gateTally
		for _, ev := range parseTrace(t, &buf) {
			if ev["ev"] != "gate" {
				continue
			}
			switch ev["decision"] {
			case "ACCEPT":
				tal.accepts++
				tal.moves += int64(ev["moves"].(float64))
				tal.moveBytes += int64(ev["move_bytes"].(float64))
			case "REJECT":
				tal.rejects++
			default:
				t.Fatalf("gate event with unknown decision %v", ev["decision"])
			}
		}
		return res, tal
	}

	plainRes, plainTal := run(plain)
	if plainTal.accepts == 0 {
		t.Fatal("idle-priced phaseshift run accepted no migrations — the gate trace has nothing to cross-check")
	}
	if plainTal.moves != plainRes.Migrations || plainTal.moveBytes != plainRes.MigratedBytes {
		t.Errorf("plain machine: ACCEPT events total %d moves / %d bytes, engine accounted %d moves / %d bytes",
			plainTal.moves, plainTal.moveBytes, plainRes.Migrations, plainRes.MigratedBytes)
	}

	sharedRes, sharedTal := run(shared)
	if sharedTal.moves != sharedRes.Migrations || sharedTal.moveBytes != sharedRes.MigratedBytes {
		t.Errorf("shared controllers: ACCEPT events total %d moves / %d bytes, engine accounted %d moves / %d bytes",
			sharedTal.moves, sharedTal.moveBytes, sharedRes.Migrations, sharedRes.MigratedBytes)
	}
	if sharedTal.rejects == 0 {
		t.Error("shared-controller run has no REJECT events — contention pricing never refused a move")
	}
	if sharedRes.MigratedBytes >= plainRes.MigratedBytes {
		t.Errorf("contended pricing should migrate less: shared %d bytes vs plain %d",
			sharedRes.MigratedBytes, plainRes.MigratedBytes)
	}
}

// TestPolicyCountersMatchAccounting cross-checks the placement
// policies' counters in Result.Metrics against the engine's own
// accounting and against each other: the online placer's migrated
// bytes and site moves on the phaseshift run, and auto-hbwmalloc's
// decision-cache and budget counters on one Lulesh pipeline cell that
// advises for 512 MB but enforces 256 MB, as the paper runs it.
func TestPolicyCountersMatchAccounting(t *testing.T) {
	w, err := hm.WorkloadByName("phaseshift")
	if err != nil {
		t.Fatal(err)
	}
	res, err := hm.RunOnline(w, hm.OnlineConfig{Machine: hm.MachineFor(w), Seed: 21, Budget: 16 * units.MB})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if res.MigratedBytes == 0 {
		t.Fatal("phaseshift run migrated nothing — the online counters have nothing to cross-check")
	}
	if got := m["online_bytes_promoted"] + m["online_bytes_demoted"]; got != res.MigratedBytes {
		t.Errorf("online bytes promoted+demoted = %d, engine migrated %d", got, res.MigratedBytes)
	}
	if got := m["online_promotions"] + m["online_demotions"]; got != m["solver_objects_repacked"] {
		t.Errorf("online promotions+demotions = %d, solver_objects_repacked = %d", got, m["solver_objects_repacked"])
	}

	lulesh, err := hm.WorkloadByName("lulesh")
	if err != nil {
		t.Fatal(err)
	}
	const enforced = 256 * units.MB
	pr, err := hm.Pipeline(lulesh, hm.PipelineConfig{
		Machine: hm.MachineFor(lulesh), Seed: 11, RefScale: 0.1,
		Budget: 512 * units.MB, Interpose: hm.InterposeOptions{BudgetOverride: enforced},
	})
	if err != nil {
		t.Fatal(err)
	}
	m = pr.Run.Metrics
	if m["interpose_cache_hits"] == 0 || m["interpose_hbw_hwm"] == 0 {
		t.Fatalf("pipeline cell never hit the decision cache or placed fast data: %v", m)
	}
	if m["interpose_translates"] != m["interpose_cache_misses"] {
		t.Errorf("interpose translates = %d, cache misses = %d", m["interpose_translates"], m["interpose_cache_misses"])
	}
	if got := m["interpose_cache_hits"] + m["interpose_cache_misses"]; got != m["interpose_unwinds"] {
		t.Errorf("interpose cache hits+misses = %d, unwinds = %d", got, m["interpose_unwinds"])
	}
	if m["interpose_hbw_hwm"] > enforced {
		t.Errorf("interpose fast high-water mark %d exceeds the enforced budget %d", m["interpose_hbw_hwm"], enforced)
	}
}

// TestTraceManifestRoundTrip checks the manifest contract at the facade
// level: a traced run's first event is a manifest that identifies the
// run and survives a decode/re-encode round trip byte-identically.
func TestTraceManifestRoundTrip(t *testing.T) {
	w, err := hm.WorkloadByName("phaseshift")
	if err != nil {
		t.Fatal(err)
	}
	m := hm.MachineFor(w)
	var buf bytes.Buffer
	rec := hm.NewFlightRecorder(&buf)
	if _, err := hm.RunBaseline(w, hm.BaselineDDR, hm.ExecuteConfig{
		Machine: m, Seed: 7, RefScale: 0.1, Obs: rec,
	}); err != nil {
		t.Fatal(err)
	}
	line, _, found := bytes.Cut(buf.Bytes(), []byte("\n"))
	if !found {
		t.Fatal("traced run wrote no events")
	}
	var man hm.RunManifest
	if err := json.Unmarshal(line, &man); err != nil {
		t.Fatal(err)
	}
	if man.Ev != "manifest" || man.Seq != 1 {
		t.Fatalf("first event is %q seq %d, want manifest seq 1", man.Ev, man.Seq)
	}
	if man.Workload != w.Name || man.Policy == "" || man.Strategy != "ddr" {
		t.Errorf("manifest identity = workload %q policy %q strategy %q", man.Workload, man.Policy, man.Strategy)
	}
	if len(man.Tiers) != len(m.Tiers) || man.Machine == "" || man.ConfigFP == "" {
		t.Errorf("manifest fingerprints incomplete: %+v", man)
	}
	again, err := json.Marshal(&man)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(line, again) {
		t.Errorf("manifest does not round-trip:\nfile:    %s\nre-done: %s", line, again)
	}
}
