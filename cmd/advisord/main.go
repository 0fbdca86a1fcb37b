// Command advisord runs the placement-advisory daemon: a long-running
// service that shares the framework's expensive Profile/Analyze
// artifacts and advisor reports across many clients over a small
// length-prefixed JSON wire protocol, backed by a content-addressed
// on-disk artifact cache.
//
//	advisord -addr :7777 -cache /var/tmp/hmem-cache
//	                        serve until interrupted; artifacts persist
//	                        in the cache directory and survive restarts
//	advisord -loadgen 8 -cache DIR
//	                        self-benchmark instead of serving: 8
//	                        concurrent clients issue cold advise
//	                        requests (engine runs), repeat them warm
//	                        (in-memory hits), then repeat them against
//	                        a restarted daemon over the same cache
//	                        (disk hits — the cross-process fingerprint
//	                        stability proof). Prints a JSON report and
//	                        fails unless warm throughput is at least
//	                        10x cold, every restart request hit disk,
//	                        and the daemon's report bytes equal a local
//	                        in-process advise.
//
// Wire clients connect with hybridmem.DialAdvisor or speak the framed
// protocol directly (see DESIGN.md "Advisory service").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	hm "repro"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7777", "listen address (serve mode)")
		cacheDir = flag.String("cache", "", "artifact cache directory (empty = memory-only; required for -loadgen)")
		workers  = flag.Int("workers", 0, "worker slots for engine/advisor work (0 = default)")

		loadgen     = flag.Int("loadgen", 0, "run the self-benchmark with N concurrent clients instead of serving")
		loadgenReqs = flag.Int("loadgen-requests", 4, "advise requests per loadgen client")
		workload    = flag.String("workload", "minife", "loadgen workload name")
		machine     = flag.String("machine", "", "machine name (empty = the workload's per-rank machine)")
		budget      = flag.Int64("budget", 0, "loadgen fast-memory budget in bytes (0 = 64 MB)")
		strategy    = flag.String("strategy", "misses", "advisor strategy: "+hm.StrategyGrammar)
		scale       = flag.Float64("scale", 0, "access-volume scale for loadgen profiling runs (0 = 1.0)")
		minWarm     = flag.Float64("min-warm-speedup", 10, "fail loadgen unless warm req/s >= this multiple of cold")
		expectCold  = flag.String("expect-cold", "miss", "cache attribution required of every cold-phase request: miss (fresh cache) or hit-disk (a PREVIOUS advisord process already populated this -cache dir — the cross-process sharing proof)")
	)
	flag.Parse()

	if *loadgen > 0 {
		if err := runLoadgen(*cacheDir, *loadgen, *loadgenReqs, *workload, *machine, *budget, *strategy, *scale, *workers, *minWarm, *expectCold); err != nil {
			fmt.Fprintln(os.Stderr, "advisord:", err)
			os.Exit(1)
		}
		return
	}
	if err := serve(*addr, *cacheDir, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "advisord:", err)
		os.Exit(1)
	}
}

func serve(addr, cacheDir string, workers int) error {
	var cache *hm.ArtifactCache
	if cacheDir != "" {
		var err error
		if cache, err = hm.OpenArtifactCache(cacheDir, nil); err != nil {
			return err
		}
	}
	srv, ln, err := hm.ServeAdvisor(addr, hm.AdvisorServerConfig{Workers: workers, Cache: cache})
	if err != nil {
		return err
	}
	fmt.Printf("advisord: listening on %s", ln.Addr())
	if cache != nil {
		fmt.Printf(" (cache %s)", cache.Dir())
	}
	fmt.Println()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("advisord: shutting down")
	if err := srv.Close(); err != nil {
		return err
	}
	if cache != nil {
		if path, err := cache.WriteRunManifest(); err == nil {
			fmt.Printf("advisord: cache manifest %s\n", path)
		}
	}
	return nil
}

func runLoadgen(cacheDir string, clients, requests int, workload, machine string, budget int64, strategy string, scale float64, workers int, minWarm float64, expectCold string) error {
	if cacheDir == "" {
		return fmt.Errorf("-loadgen needs -cache DIR (the restart phase re-opens it)")
	}
	if expectCold != hm.AdvisorCacheMiss && expectCold != hm.AdvisorCacheHitDisk {
		return fmt.Errorf("-expect-cold must be %q or %q", hm.AdvisorCacheMiss, hm.AdvisorCacheHitDisk)
	}
	rep, err := hm.AdvisorLoadgen(hm.AdvisorLoadgenOptions{
		Workload: workload, Machine: machine,
		Clients: clients, Requests: requests,
		Budget: budget, Strategy: strategy, RefScale: scale,
		Workers: workers, CacheDir: cacheDir,
	})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}

	// Self-verification: the numbers are only worth printing if they
	// prove the cache did its job.
	total := clients * requests
	var fails []string
	if rep.Cold.Mix[expectCold] != total {
		fails = append(fails, fmt.Sprintf("cold phase expected %d %s requests, got %v", total, expectCold, rep.Cold.Mix))
	}
	if rep.Warm.Mix[hm.AdvisorCacheHitMem] != total {
		fails = append(fails, fmt.Sprintf("warm phase expected %d in-memory hits, got %v", total, rep.Warm.Mix))
	}
	if rep.Restart.Mix[hm.AdvisorCacheHitDisk] != total {
		fails = append(fails, fmt.Sprintf("restart phase expected %d disk hits, got %v — artifacts did not survive the restart", total, rep.Restart.Mix))
	}
	// A cold phase served from a prior process's disk artifacts is
	// already fast — the compute-vs-memo speedup gate only means
	// something when the cold phase actually computed.
	if expectCold == hm.AdvisorCacheMiss && rep.WarmSpeedup < minWarm {
		fails = append(fails, fmt.Sprintf("warm speedup %.1fx below required %.1fx", rep.WarmSpeedup, minWarm))
	}
	if !rep.Identical {
		fails = append(fails, "daemon report bytes differ from local in-process advise")
	}
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "advisord: FAIL:", f)
		}
		return fmt.Errorf("loadgen self-verification failed (%d checks)", len(fails))
	}
	fmt.Printf("advisord: loadgen OK: cold %.1f req/s, warm %.1f req/s (%.0fx), restart served %d/%d from disk\n",
		rep.Cold.ReqPerSec, rep.Warm.ReqPerSec, rep.WarmSpeedup, rep.Restart.Mix[hm.AdvisorCacheHitDisk], total)
	return nil
}
