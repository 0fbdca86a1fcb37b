package hybridmem_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	hm "repro"
	"repro/internal/units"
)

// ntierGoldenMachines are the N-tier machines whose advisor reports
// are pinned under testdata/ntier_reports (the per-rank views the
// ntierdemo workload targets).
func ntierGoldenMachines(w *hm.Workload) map[string]hm.Machine {
	return map[string]hm.Machine{
		"knloptane": hm.PerRankMachine(hm.KNLOptane(), w.Ranks, w.Threads),
		"hbmcxl":    hm.PerRankMachine(hm.HBMCXL(), w.Ranks, w.Threads),
	}
}

// ntierGoldenReport runs profile+analyze+waterfall-advise for the
// ntierdemo workload on machine m and returns the serialized report.
func ntierGoldenReport(t *testing.T, w *hm.Workload, m hm.Machine) []byte {
	t.Helper()
	tr, _, err := hm.Profile(w, hm.ProfileConfig{
		Machine: m, Seed: 42, RefScale: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := hm.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	mc := hm.MemoryConfigFor(m, 256*units.MB)
	rep, err := hm.AdviseHierarchy(context.Background(), prof, mc, hm.StrategyMisses(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAdviseNTierGolden pins the waterfall advisor's output on the
// KNLOptane and HBMCXL machine shapes, the N-tier counterpart of
// TestAdviseTwoTierSeedInvariance. Regenerate with -update.
func TestAdviseNTierGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("N-tier profiling runs are not -short")
	}
	w := hm.NTierDemoWorkload()
	for name, m := range ntierGoldenMachines(w) {
		t.Run(name, func(t *testing.T) {
			got := ntierGoldenReport(t, w, m)
			path := filepath.Join("testdata", "ntier_reports", name+".report")
			if *updateGoldens {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run go test -run NTierGolden -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s report diverged:\n--- golden ---\n%s\n--- got ---\n%s", name, want, got)
			}
		})
	}
}

// TestUniformTopologyAdviceInvariance is the degeneracy proof of the
// topology refactor's advisor half: machines re-declared as
// multi-domain with an all-ones distance matrix must reproduce every
// pinned advisor report byte-for-byte — the two-tier seed goldens AND
// the N-tier goldens.
func TestUniformTopologyAdviceInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling the golden workloads is not -short")
	}
	// Two-tier seed goldens under a uniform 2-domain re-declaration.
	for _, w := range hm.Workloads() {
		for _, st := range goldenStrategies() {
			name := fmt.Sprintf("%s_%s", w.Name, st.label)
			t.Run("seed/"+name, func(t *testing.T) {
				m := hm.WithUniformTopology(hm.MachineFor(w), 2)
				got := goldenReportOn(t, w, m, st.s)
				want, err := os.ReadFile(filepath.Join("testdata", "seed_reports", name+".report"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("uniform topology changed the %s report:\n--- flat ---\n%s\n--- uniform ---\n%s",
						name, want, got)
				}
			})
		}
	}
	// N-tier goldens under a uniform 3-domain re-declaration.
	w := hm.NTierDemoWorkload()
	for name, m := range ntierGoldenMachines(w) {
		t.Run("ntier/"+name, func(t *testing.T) {
			got := ntierGoldenReport(t, w, hm.WithUniformTopology(m, 3))
			want, err := os.ReadFile(filepath.Join("testdata", "ntier_reports", name+".report"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("uniform topology changed the %s report:\n--- flat ---\n%s\n--- uniform ---\n%s",
					name, want, got)
			}
		})
	}
}

// TestUniformTopologyRunInvariance is the run-result half of the
// degeneracy proof: a uniform-topology re-declaration must leave every
// simulated result — baseline, pipeline and online — byte-identical,
// down to cycle counts and tier high-water marks.
func TestUniformTopologyRunInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("three run pairs are not -short")
	}
	w := hm.NTierDemoWorkload()
	flat := hm.PerRankMachine(hm.KNLOptane(), w.Ranks, w.Threads)
	uni := hm.WithUniformTopology(flat, 2)

	sameResult := func(label string, a, b *hm.RunResult) {
		t.Helper()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: uniform topology changed the run result:\nflat:    %+v\nuniform: %+v", label, a, b)
		}
	}

	for _, b := range []hm.Baseline{hm.BaselineDDR, hm.BaselineNumactl} {
		fr, err := hm.RunBaseline(w, b, hm.ExecuteConfig{Machine: flat, Seed: 42, RefScale: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		ur, err := hm.RunBaseline(w, b, hm.ExecuteConfig{Machine: uni, Seed: 42, RefScale: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(b.String(), fr, ur)
	}

	fmc := hm.MemoryConfigFor(flat, 256*units.MB)
	fp, err := hm.Pipeline(w, hm.PipelineConfig{Machine: flat, Seed: 42, Memory: &fmc, RefScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	umc := hm.MemoryConfigFor(uni, 256*units.MB)
	up, err := hm.Pipeline(w, hm.PipelineConfig{Machine: uni, Seed: 42, Memory: &umc, RefScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	sameResult("pipeline", fp.Run, up.Run)

	fo, err := hm.RunOnline(w, hm.OnlineConfig{Machine: flat, Seed: 42, RefScale: 0.25, Budget: 128 * units.MB})
	if err != nil {
		t.Fatal(err)
	}
	uo, err := hm.RunOnline(w, hm.OnlineConfig{Machine: uni, Seed: 42, RefScale: 0.25, Budget: 128 * units.MB})
	if err != nil {
		t.Fatal(err)
	}
	sameResult("online", fo, uo)
}
