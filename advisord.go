package hybridmem

// The advisory-service facade: the placement-advisory daemon of
// internal/advisord re-exported on the library's public surface. The
// daemon lets many clients — separate processes, CI jobs, simulated
// fleet nodes — share the expensive Profile/Analyze artifacts and
// advisor reports over a small length-prefixed JSON wire protocol,
// backed by a content-addressed on-disk artifact cache whose keys are
// the canonical config fingerprints of internal/obs. Every artifact a
// daemon serves is byte-identical to the in-process path: a report
// from the wire equals Advise run locally, bit for bit.

import (
	"net"

	"repro/internal/advisord"
	"repro/internal/stage"
)

type (
	// ArtifactCache is the content-addressed on-disk artifact store
	// shared by the advisory daemon and the sweep engine's persistent
	// memo tier (SweepOptions.Cache). Each entry is one file whose
	// header carries the body's sha256, written atomically; corrupt
	// entries are detected, dropped and recomputed, never served.
	ArtifactCache = stage.Cache
	// ArtifactCacheStats counts a cache's hits, misses, puts and
	// corrupt-entry drops.
	ArtifactCacheStats = stage.CacheStats
	// AdvisorServer is the placement-advisory daemon.
	AdvisorServer = advisord.Server
	// AdvisorServerConfig parameterizes an AdvisorServer.
	AdvisorServerConfig = advisord.ServerConfig
	// AdvisorClient is one conversation with an advisory daemon.
	AdvisorClient = advisord.Client
	// AdvisorStats snapshots a daemon's lifetime counters.
	AdvisorStats = advisord.ServerStats
	// AdvisorSample is one aggregated PEBS-style record of a
	// client-side sample batch.
	AdvisorSample = advisord.Sample
	// AdvisorProfileParams are the profiling knobs an advisory request
	// carries; zero values take the library defaults.
	AdvisorProfileParams = stage.ProfileParams
	// AdvisorLoadgenOptions parameterizes the daemon self-benchmark.
	AdvisorLoadgenOptions = advisord.LoadgenOptions
	// AdvisorLoadgenReport is the self-benchmark's outcome, including
	// the cold/warm/restart cache attributions and req/s.
	AdvisorLoadgenReport = advisord.LoadgenReport
)

// Cache attribution values an advisory response carries, coldest
// first: computed fresh, served from the on-disk cache, served from
// the in-memory memo.
const (
	AdvisorCacheMiss    = advisord.CacheMiss
	AdvisorCacheHitDisk = advisord.CacheHitDisk
	AdvisorCacheHitMem  = advisord.CacheHitMem
)

// OpenArtifactCache opens (creating if needed) the artifact cache
// rooted at dir. fault may be nil; when armed, its cache-corrupt point
// garbles selected writes so chaos tests can prove the corruption
// recovery path.
func OpenArtifactCache(dir string, fault *FaultInjector) (*ArtifactCache, error) {
	return stage.OpenCache(dir, fault)
}

// ServeAdvisor builds a daemon and serves it on a TCP address until
// the server is Closed; it returns the server and the bound listener
// (use addr ":0" to let the kernel pick a port).
func ServeAdvisor(addr string, cfg AdvisorServerConfig) (*AdvisorServer, net.Listener, error) {
	srv := advisord.NewServer(cfg)
	ln, err := srv.ServeAddr(addr)
	if err != nil {
		return nil, nil, err
	}
	return srv, ln, nil
}

// DialAdvisor connects to an advisory daemon at a TCP address.
func DialAdvisor(addr string) (*AdvisorClient, error) {
	return advisord.Dial(addr)
}

// AdvisorLoadgen runs the daemon self-benchmark: a cold phase against
// an empty cache, a warm repeat against the same daemon, and a repeat
// against a restarted daemon over the same cache directory — the
// cross-process proof that canonical fingerprints key the same
// artifacts in every process.
func AdvisorLoadgen(opts AdvisorLoadgenOptions) (*AdvisorLoadgenReport, error) {
	return advisord.Loadgen(opts)
}
