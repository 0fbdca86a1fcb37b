package hybridmem_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	hm "repro"
	"repro/internal/units"
)

// exactGoldenCases are the N-tier machines whose exact solutions the
// goldens under testdata/exact_reports pin: the three-tier KNL+Optane
// rank of the -ntier study (hot set promoted to MCDRAM, everything
// else on the default absorber) and the dual-socket topology rank of
// -numa (no tier beats near DDR from socket 0, so the exact report is
// promotion-free — topology-aware "do nothing" is the optimum), both
// profiled with the ntierdemo workload at the experiments' seed.
func exactGoldenCases() []struct {
	name       string
	machine    hm.Machine
	fastBudget int64
} {
	w := hm.NTierDemoWorkload()
	return []struct {
		name       string
		machine    hm.Machine
		fastBudget int64
	}{
		{"knloptane", hm.PerRankMachine(hm.KNLOptane(), w.Ranks, w.Threads), 256 * units.MB},
		{"dualsockethbm", hm.PerRankMachine(hm.DualSocketHBM(), w.Ranks, w.Threads), 0},
	}
}

// exactProfile profiles ntierdemo on m with the experiments' seed at
// full scale — the scale matters: the cold checkpoint buffers collect
// only a handful of PEBS samples, and a scaled-down run would leave
// them without misses entirely, hiding the banishment decision the
// goldens exist to pin.
func exactProfile(t *testing.T, m hm.Machine) *hm.ObjectProfile {
	t.Helper()
	w := hm.NTierDemoWorkload()
	tr, _, err := hm.Profile(w, hm.ProfileConfig{Machine: m, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := hm.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// TestExactNTierGoldens pins the exact solver's N-tier placements for
// the KNLOptane and DualSocketHBM machines (-update regenerates), and
// checks the oracle property on the same profiles: no greedy waterfall
// strategy beats the exact objective, and the waterfall stays within
// 90% of it.
func TestExactNTierGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling ntierdemo twice is not -short")
	}
	for _, tc := range exactGoldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			prof := exactProfile(t, tc.machine)
			mc := hm.MemoryConfigFor(tc.machine, tc.fastBudget)
			exact, err := hm.AdviseHierarchy(context.Background(), prof, mc, hm.StrategyExactNTier, nil)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := exact.Write(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "exact_reports", tc.name+".report")
			if *updateGoldens {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run go test -run ExactNTierGoldens -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("exact solution diverged from golden:\n--- golden ---\n%s\n--- got ---\n%s",
					want, buf.Bytes())
			}

			exactObj := hm.PlacementObjective(prof, exact, mc)
			for _, strat := range []hm.Strategy{hm.StrategyMisses(0), hm.StrategyDensity} {
				greedy, err := hm.AdviseHierarchy(context.Background(), prof, mc, strat, nil)
				if err != nil {
					t.Fatal(err)
				}
				ratio := hm.PlacementObjective(prof, greedy, mc) / exactObj
				if ratio > 1+1e-9 {
					t.Errorf("%s beat the exact oracle: ratio %.6f", strat.Name(), ratio)
				}
				if ratio < 0.9 {
					t.Errorf("%s fell to %.4f of the exact objective", strat.Name(), ratio)
				}
				t.Logf("%s/exact objective ratio: %.4f", strat.Name(), ratio)
			}
		})
	}
}

// TestExactNTierMatchesExactDPOnSeedWorkloads proves the exact solver
// degenerates to the paper's reference DP on the two-tier
// configuration of every seed-golden workload: same profile, same
// budget, byte-identical reports once the (necessarily different)
// strategy label is normalized.
func TestExactNTierMatchesExactDPOnSeedWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling all Table I workloads is not -short")
	}
	for _, w := range hm.Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			tr, _, err := hm.Profile(w, hm.ProfileConfig{
				Machine: hm.MachineFor(w), Seed: 11, RefScale: 0.25,
			})
			if err != nil {
				t.Fatal(err)
			}
			prof, err := hm.Analyze(tr)
			if err != nil {
				t.Fatal(err)
			}
			dp, err := hm.Advise(prof, 128*units.MB, hm.StrategyExactDP)
			if err != nil {
				t.Fatal(err)
			}
			nt, err := hm.Advise(prof, 128*units.MB, hm.StrategyExactNTier)
			if err != nil {
				t.Fatal(err)
			}
			nt.Strategy = dp.Strategy
			var bufDP, bufNT bytes.Buffer
			if err := dp.Write(&bufDP); err != nil {
				t.Fatal(err)
			}
			if err := nt.Write(&bufNT); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bufDP.Bytes(), bufNT.Bytes()) {
				t.Errorf("two-tier exact diverged from ExactDP:\n--- exact-dp ---\n%s\n--- exact ---\n%s",
					bufDP.String(), bufNT.String())
			}
		})
	}
}

// TestOnlineRejectsExactStrategyOnNTierMachines: the online placer's
// per-epoch re-solve cascades Select per tier, so a hierarchy-aware
// solver there would be greedy-but-labeled-exact — refused on N-tier
// machines, allowed on two-tier ones where the single fast knapsack
// is the whole decision.
func TestOnlineRejectsExactStrategyOnNTierMachines(t *testing.T) {
	w := hm.NTierDemoWorkload()
	m := hm.PerRankMachine(hm.KNLOptane(), w.Ranks, w.Threads)
	_, err := hm.RunOnline(w, hm.OnlineConfig{
		Machine: m, Seed: 42, RefScale: 0.05,
		Budget: 64 * units.MB, Strategy: hm.StrategyExactNTier,
	})
	if err == nil || !strings.Contains(err.Error(), "mislabel") {
		t.Fatalf("online N-tier exact cascade accepted: err=%v", err)
	}
	if testing.Short() {
		return // the accept case below is a full (scaled) run
	}
	ps, err := hm.WorkloadByName("phaseshift")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hm.RunOnline(ps, hm.OnlineConfig{
		Machine: hm.MachineFor(ps), Seed: 21, RefScale: 0.1,
		Budget: 16 * units.MB, Strategy: hm.StrategyExactNTier,
	}); err != nil {
		t.Fatalf("two-tier online exact refused: %v", err)
	}
}

// TestStrategyByName pins the strategy grammar cmd/hmemadvisor and
// cmd/experiments share, including strict misses parsing: the typo
// "misses5" must be rejected, not silently parsed as a 0% threshold.
func TestStrategyByName(t *testing.T) {
	for name, want := range map[string]string{
		"density":  "density",
		"exact":    "exact",
		"exact-dp": "exact-dp",
		"fcfs":     "fcfs",
		"misses":   "misses(0%)",
		"misses:5": "misses(5%)",
		"misses:0": "misses(0%)",
	} {
		s, err := hm.StrategyByName(name)
		if err != nil {
			t.Errorf("%q rejected: %v", name, err)
			continue
		}
		if s.Name() != want {
			t.Errorf("StrategyByName(%q).Name() = %q, want %q", name, s.Name(), want)
		}
	}
	for _, bad := range []string{"", "misses5", "misses:", "misses:x", "misses:Inf", "misses:NaN", "misses:-5", "misses:-0", "ilp", "Exact", "exactdp"} {
		if _, err := hm.StrategyByName(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestExactStrategyThroughPipelineAndSweep drives the exact solver
// through the full stage-3+4 seams — Pipeline with a Memory hierarchy
// and the same cell under RunSweep — proving the facade accepts it
// unchanged and both paths agree bit for bit.
func TestExactStrategyThroughPipelineAndSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline runs are not -short")
	}
	w := hm.NTierDemoWorkload()
	m := hm.PerRankMachine(hm.KNLOptane(), w.Ranks, w.Threads)
	mc := hm.MemoryConfigFor(m, 256*units.MB)
	cfg := hm.PipelineConfig{
		Machine: m, Seed: 42, Memory: &mc,
		Strategy: hm.StrategyExactNTier,
	}
	pr, err := hm.Pipeline(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Report.Strategy != "exact" {
		t.Fatalf("pipeline report strategy = %q", pr.Report.Strategy)
	}
	// The exact model promotes into MCDRAM and never banishes — the
	// default is its unbounded absorber (see the ExactNTier comment).
	mcdram, nvm := 0, 0
	for _, e := range pr.Report.Entries {
		switch e.Tier {
		case "MCDRAM":
			mcdram++
		case "NVM":
			nvm++
		}
	}
	if mcdram == 0 || nvm != 0 {
		t.Fatalf("exact pipeline report shape wrong (MCDRAM %d, NVM %d): %+v",
			mcdram, nvm, pr.Report.Entries)
	}
	res, err := hm.RunSweep([]hm.SweepPoint{hm.PipelinePoint("exact", w, cfg)}, hm.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := pr.Report.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := res[0].Pipeline.Report.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("sweep report diverged from serial pipeline:\n%s\nvs\n%s", a.String(), b.String())
	}
	if res[0].Run.FOM != pr.Run.FOM {
		t.Fatalf("sweep FOM %v != pipeline FOM %v", res[0].Run.FOM, pr.Run.FOM)
	}
}
