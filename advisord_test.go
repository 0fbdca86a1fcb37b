package hybridmem_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	hm "repro"
	"repro/internal/units"
)

// localReports computes the advisory report for each strategy fully
// in-process through the public facade — one Profile→Analyze, then one
// Advise per strategy — the byte-level ground truth every daemon answer
// must match.
func localReports(t *testing.T, workload string, seed uint64, refScale float64, budget int64, strategies []string) map[string][]byte {
	t.Helper()
	w, err := hm.WorkloadByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	m := hm.MachineFor(w)
	tr, _, err := hm.Profile(w, hm.ProfileConfig{Machine: m, Seed: seed, RefScale: refScale})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := hm.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(strategies))
	for _, name := range strategies {
		strat, err := hm.StrategyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := hm.Advise(prof, budget, strat)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = reportBytes(t, rep)
	}
	return out
}

func reportBytes(t *testing.T, rep *hm.PlacementReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sweepReports runs one RunSweep pipeline cell per strategy on the
// workload's canonical machine and returns each cell's written report:
// the memoized-profile Stage 3 path.
func sweepReports(t *testing.T, workload string, seed uint64, refScale float64, budget int64, strategies []string) map[string][]byte {
	t.Helper()
	w, err := hm.WorkloadByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	var pts []hm.SweepPoint
	for _, name := range strategies {
		strat, err := hm.StrategyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, hm.PipelinePoint(name, w, hm.PipelineConfig{
			Machine: hm.MachineFor(w), Seed: seed, RefScale: refScale, Budget: budget, Strategy: strat,
		}))
	}
	cells, err := hm.RunSweep(pts, hm.SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(cells))
	for _, c := range cells {
		if c.Err != nil {
			t.Fatalf("sweep cell %s: %v", c.Label, c.Err)
		}
		out[c.Label] = reportBytes(t, c.Pipeline.Report)
	}
	return out
}

// TestAdvisorDaemonMatchesFacade drives the daemon through the public
// facade: for every strategy, concurrent clients must all receive
// report bytes identical to the in-process Profile→Analyze→Advise path
// and to a RunSweep pipeline cell of the same workload, seed, RefScale
// and budget — the three Stage 3 callers write one byte stream — and a
// restarted daemon over the same cache directory must serve the same
// bytes from disk without recomputing.
func TestAdvisorDaemonMatchesFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon round trips run engine profiles; not -short")
	}
	const (
		workload = "minife"
		seed     = uint64(7)
		refScale = 0.25
		budget   = 64 * units.MB
	)
	strategies := []string{"misses", "density", "exact"}
	want := localReports(t, workload, seed, refScale, budget, strategies)
	swept := sweepReports(t, workload, seed, refScale, budget, strategies)
	for _, strategy := range strategies {
		if !bytes.Equal(swept[strategy], want[strategy]) {
			t.Fatalf("%s: sweep cell report differs from in-process facade advise:\n--- local ---\n%s\n--- sweep ---\n%s",
				strategy, want[strategy], swept[strategy])
		}
	}
	params := hm.AdvisorProfileParams{Seed: seed, RefScale: refScale}

	dir := t.TempDir()
	cache, err := hm.OpenArtifactCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, ln, err := hm.ServeAdvisor("127.0.0.1:0", hm.AdvisorServerConfig{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	for _, strategy := range strategies {
		const clients = 3
		reports := make([][]byte, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cl, err := hm.DialAdvisor(addr)
				if err != nil {
					errs[i] = err
					return
				}
				defer cl.Close()
				res, err := cl.AdviseWorkload(workload, "", params, budget, strategy)
				if err != nil {
					errs[i] = err
					return
				}
				reports[i] = res.ReportBytes
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: client %d: %v", strategy, i, err)
			}
		}
		for i, rep := range reports {
			if !bytes.Equal(rep, want[strategy]) {
				t.Fatalf("%s: client %d: daemon report differs from in-process facade advise:\n--- local ---\n%s\n--- daemon ---\n%s",
					strategy, i, want[strategy], rep)
			}
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a brand-new server over a brand-new cache handle on the
	// same directory — nothing in memory survives, only the
	// content-addressed artifacts. The advise must come back from disk,
	// byte-identical.
	cache2, err := hm.OpenArtifactCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv2, ln2, err := hm.ServeAdvisor("127.0.0.1:0", hm.AdvisorServerConfig{Workers: 2, Cache: cache2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cl, err := hm.DialAdvisor(ln2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, strategy := range strategies {
		res, err := cl.AdviseWorkload(workload, "", params, budget, strategy)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache != hm.AdvisorCacheHitDisk {
			t.Fatalf("%s: restarted daemon attribution = %q, want %q (artifacts did not survive the restart)", strategy, res.Cache, hm.AdvisorCacheHitDisk)
		}
		if !bytes.Equal(res.ReportBytes, want[strategy]) {
			t.Fatalf("%s: restarted daemon served different report bytes", strategy)
		}
	}
}

// cachedSweepGrid is a small budget×strategy plane sharing one
// profiling artifact — the shape the persistent cache tier exists for.
func cachedSweepGrid(t *testing.T) []hm.SweepPoint {
	t.Helper()
	w, err := hm.WorkloadByName("minife")
	if err != nil {
		t.Fatal(err)
	}
	m := hm.MachineFor(w)
	var pts []hm.SweepPoint
	for _, budget := range []int64{32 * units.MB, 128 * units.MB} {
		pts = append(pts, hm.PipelinePoint("m0", w, hm.PipelineConfig{
			Machine: m, Seed: 21, Budget: budget, Strategy: hm.StrategyMisses(0), RefScale: 0.25,
		}))
	}
	pts = append(pts, hm.PipelinePoint("density", w, hm.PipelineConfig{
		Machine: m, Seed: 21, Budget: 64 * units.MB, Strategy: hm.StrategyDensity, RefScale: 0.25,
	}))
	return pts
}

// assertSweepsEqual requires two sweeps' runs and advisor reports to
// be bit-identical cell by cell.
func assertSweepsEqual(t *testing.T, label string, want, got []hm.SweepResult) {
	t.Helper()
	for i := range want {
		if !reflect.DeepEqual(want[i].Run, got[i].Run) {
			t.Errorf("%s: cell %d (%s): run diverged", label, i, want[i].Label)
		}
		var a, b bytes.Buffer
		if err := want[i].Pipeline.Report.Write(&a); err != nil {
			t.Fatal(err)
		}
		if err := got[i].Pipeline.Report.Write(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: cell %d (%s): advisor report diverged:\n--- want ---\n%s\n--- got ---\n%s",
				label, i, want[i].Label, a.String(), b.String())
		}
	}
}

// TestSweepCacheBitIdentical pins the persistent profile tier: a sweep
// over a warm artifact cache — even a corrupted one — must return
// results bit-identical to a cache-less sweep.
func TestSweepCacheBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep grids are not -short")
	}
	pts := cachedSweepGrid(t)
	want, err := hm.RunSweep(pts, hm.SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Cold pass populates the cache.
	dir := t.TempDir()
	cold, err := hm.OpenArtifactCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hm.RunSweep(pts, hm.SweepOptions{Workers: 2, Cache: cold})
	if err != nil {
		t.Fatal(err)
	}
	assertSweepsEqual(t, "cold-cache", want, res)
	if st := cold.Stats(); st.Puts == 0 {
		t.Fatalf("cold sweep committed nothing: %+v", st)
	}

	// Warm pass through a FRESH handle — as a separate process would
	// see it. Every profile must come from disk (no misses), results
	// bit-identical.
	warm, err := hm.OpenArtifactCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err = hm.RunSweep(pts, hm.SweepOptions{Workers: 2, Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	assertSweepsEqual(t, "warm-cache", want, res)
	if st := warm.Stats(); st.Hits == 0 || st.Misses != 0 {
		t.Fatalf("warm sweep did not serve the profile from disk: %+v", st)
	}

	// Flip one body byte of every entry file — the byte just past its
	// header line; the next sweep must detect it, recompute, and still
	// come out bit-identical.
	var corrupted int
	err = filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if i := bytes.IndexByte(b, '\n') + 1; i > 0 && i < len(b) {
			b[i] ^= 0x01
			corrupted++
		}
		return os.WriteFile(path, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("no cache entry found to corrupt")
	}
	dam, err := hm.OpenArtifactCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err = hm.RunSweep(pts, hm.SweepOptions{Workers: 2, Cache: dam})
	if err != nil {
		t.Fatal(err)
	}
	assertSweepsEqual(t, "corrupt-cache", want, res)
	if st := dam.Stats(); st.Corrupt == 0 {
		t.Fatalf("corruption went undetected: %+v", st)
	}
}
