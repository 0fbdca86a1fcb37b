package advisord

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/advisor"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/stage"
	"repro/internal/units"
)

// LoadgenOptions parameterizes the self-benchmark (cmd/advisord
// -loadgen).
type LoadgenOptions struct {
	Workload string  // registered workload name ("" = minife)
	Machine  string  // machine name ("" = the workload's per-rank machine)
	Clients  int     // concurrent clients (0 = 4)
	Requests int     // advise requests per client (0 = 4)
	Budget   int64   // fast-memory budget (0 = 64 MB)
	Strategy string  // advisor strategy ("" = misses)
	RefScale float64 // access-volume scale of the profiling runs (0 = 1.0)
	Workers  int     // server worker slots (0 = server default)
	CacheDir string  // REQUIRED: cache directory shared across the restart
	// Fault, when non-nil, severs victim clients' connections
	// mid-conversation during the cold phase (the client-disconnect
	// chaos point); victims redial and the run must still succeed.
	Fault *faultinject.Injector
}

// LoadgenPhase reports one phase of the benchmark.
type LoadgenPhase struct {
	Seconds   float64        `json:"seconds"`
	ReqPerSec float64        `json:"req_per_sec"`
	Mix       map[string]int `json:"cache_mix"` // attribution -> request count
}

// LoadgenReport is the -loadgen outcome. Cold runs every request
// against an empty cache (all misses), Warm repeats them against the
// same daemon (all in-memory hits), Restart repeats them against a
// FRESH daemon process-equivalent — new Server, new Cache handle, same
// directory — so every hit must come from disk, which is the
// cross-process fingerprint-stability proof.
type LoadgenReport struct {
	Workload    string       `json:"workload"`
	Machine     string       `json:"machine"`
	Strategy    string       `json:"strategy"`
	Budget      int64        `json:"budget"`
	Clients     int          `json:"clients"`
	Requests    int          `json:"requests_per_client"`
	Cold        LoadgenPhase `json:"cold"`
	Warm        LoadgenPhase `json:"warm"`
	Restart     LoadgenPhase `json:"restart"`
	WarmSpeedup float64      `json:"warm_speedup"` // warm req/s over cold req/s
	// Identical reports whether the daemon's report bytes matched a
	// local in-process advise for the sampled request.
	Identical   bool `json:"identical_to_local"`
	Disconnects int  `json:"injected_disconnects"`
}

// LocalAdvise computes the (profile, advise) pair for one request
// entirely in-process — the shared stage body with no server, pool,
// memo or cache — returning the report bytes. Loadgen compares the
// daemon's bytes against this to prove the wire, the worker pool, the
// memo and the cache never alter an artifact.
func LocalAdvise(workload, machine string, params stage.ProfileParams, budget int64, strategy string) ([]byte, error) {
	w, m, err := resolveWorkload(workload, machine)
	if err != nil {
		return nil, err
	}
	params.Machine = m
	art, err := stage.Profile(w, params.Normalized(), engine.Config{})
	if err != nil {
		return nil, err
	}
	return adviseReport(art.Profile, advisor.TwoTier(budget), strategy)
}

// Loadgen runs the self-benchmark. It owns the daemon lifecycle:
// starts a server over CacheDir, drives the cold and warm phases,
// tears the server down, starts a fresh one over the same directory,
// and drives the restart phase.
func Loadgen(opts LoadgenOptions) (*LoadgenReport, error) {
	if opts.CacheDir == "" {
		return nil, fmt.Errorf("advisord: loadgen needs a cache dir")
	}
	if opts.Workload == "" {
		opts.Workload = "minife"
	}
	if opts.Clients <= 0 {
		opts.Clients = 4
	}
	if opts.Requests <= 0 {
		opts.Requests = 4
	}
	if opts.Budget <= 0 {
		opts.Budget = 64 * units.MB
	}
	if opts.Strategy == "" {
		opts.Strategy = "misses"
	}
	if opts.RefScale == 0 {
		opts.RefScale = 1
	}
	rep := &LoadgenReport{
		Workload: opts.Workload, Machine: opts.Machine,
		Strategy: opts.Strategy, Budget: opts.Budget,
		Clients: opts.Clients, Requests: opts.Requests,
	}

	start := func() (*Server, net.Listener, error) {
		cache, err := stage.OpenCache(opts.CacheDir, nil)
		if err != nil {
			return nil, nil, err
		}
		srv := NewServer(ServerConfig{Workers: opts.Workers, Cache: cache})
		ln, err := srv.ServeAddr("127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		return srv, ln, nil
	}

	srv, ln, err := start()
	if err != nil {
		return nil, err
	}
	victims := FaultDisconnectVictims(opts.Fault, opts.Clients)
	cold, disconnects, err := loadgenPhase(ln.Addr().String(), opts, victims, opts.Fault)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("advisord: cold phase: %w", err)
	}
	rep.Cold, rep.Disconnects = cold, disconnects
	warm, _, err := loadgenPhase(ln.Addr().String(), opts, nil, nil)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("advisord: warm phase: %w", err)
	}
	rep.Warm = warm
	if _, err := srv.Cache().WriteRunManifest(); err != nil {
		srv.Close()
		return nil, err
	}
	srv.Close()

	// Restart: a fresh server and a fresh cache handle over the same
	// directory stand in for a new daemon process; every artifact must
	// come back from disk.
	srv2, ln2, err := start()
	if err != nil {
		return nil, err
	}
	defer srv2.Close()
	restart, _, err := loadgenPhase(ln2.Addr().String(), opts, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("advisord: restart phase: %w", err)
	}
	rep.Restart = restart
	if cold.ReqPerSec > 0 {
		rep.WarmSpeedup = warm.ReqPerSec / cold.ReqPerSec
	}

	// Byte-identity spot check: request (client 0, request 0) again and
	// compare against a fully local advise.
	cl, err := Dial(ln2.Addr().String())
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	params := loadgenParams(opts, 0, 0)
	got, err := cl.AdviseWorkload(opts.Workload, opts.Machine, params, opts.Budget, opts.Strategy)
	if err != nil {
		return nil, err
	}
	want, err := LocalAdvise(opts.Workload, opts.Machine, params, opts.Budget, opts.Strategy)
	if err != nil {
		return nil, err
	}
	rep.Identical = bytes.Equal(got.ReportBytes, want)
	if _, err := srv2.Cache().WriteRunManifest(); err != nil {
		return nil, err
	}
	return rep, nil
}

// loadgenParams derives the unique profiling parameters of request r
// of client c: one seed per request, so the cold phase can never reuse
// an artifact and the attribution math is exact.
func loadgenParams(opts LoadgenOptions, c, r int) stage.ProfileParams {
	return stage.ProfileParams{
		Seed:     1 + uint64(c)*uint64(opts.Requests) + uint64(r),
		RefScale: opts.RefScale,
	}
}

// loadgenPhase drives Clients concurrent conversations of Requests
// advise calls each against addr, tallying wall time and the cache
// attribution of every response. Victim clients (client-disconnect
// chaos) sever their connection before reading their first response,
// redial, and repeat the request — the daemon must shrug.
func loadgenPhase(addr string, opts LoadgenOptions, victims []bool, fault *faultinject.Injector) (LoadgenPhase, int, error) {
	type attribution struct {
		cache string
		err   error
	}
	results := make([][]attribution, opts.Clients)
	disconnects := 0
	var dmu sync.Mutex

	begin := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < opts.Clients; c++ {
		results[c] = make([]attribution, opts.Requests)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				results[c][0] = attribution{err: err}
				return
			}
			defer func() { cl.Close() }()
			if victims != nil && victims[c] {
				// Sever mid-conversation: write a request, vanish before
				// reading the response, then carry on over a new
				// connection.
				req := loadgenParams(opts, c, 0)
				_ = WriteFrame(cl.Conn(), &Request{
					Op: OpAdvise, Workload: opts.Workload, Machine: opts.Machine,
					Seed: req.Seed, RefScale: req.RefScale,
					Budget: opts.Budget, Strategy: opts.Strategy,
				})
				cl.Close()
				_ = fault.Errorf(faultinject.ClientDisconnect, "client %d", c)
				dmu.Lock()
				disconnects++
				dmu.Unlock()
				if cl, err = Dial(addr); err != nil {
					results[c][0] = attribution{err: err}
					return
				}
			}
			for r := 0; r < opts.Requests; r++ {
				res, err := cl.AdviseWorkload(opts.Workload, opts.Machine,
					loadgenParams(opts, c, r), opts.Budget, opts.Strategy)
				if err != nil {
					results[c][r] = attribution{err: err}
					return
				}
				results[c][r] = attribution{cache: res.Cache}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(begin).Seconds()

	phase := LoadgenPhase{Seconds: elapsed, Mix: map[string]int{}}
	total := 0
	for c := range results {
		for r := range results[c] {
			a := results[c][r]
			if a.err != nil {
				return phase, disconnects, fmt.Errorf("client %d request %d: %w", c, r, a.err)
			}
			phase.Mix[a.cache]++
			total++
		}
	}
	if elapsed > 0 {
		phase.ReqPerSec = float64(total) / elapsed
	}
	return phase, disconnects, nil
}
