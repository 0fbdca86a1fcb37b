package advisord

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/advisor"
	"repro/internal/apps"
	"repro/internal/callstack"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/paramedir"
	"repro/internal/stage"
	"repro/internal/sweep"
)

// resolveWorkload resolves a request's workload name and machine name:
// the shipped machine configurations by the names the CLIs use, and ""
// for the workload's canonical per-rank machine.
func resolveWorkload(workload, machine string) (*engine.Workload, mem.Machine, error) {
	w, err := apps.ByName(workload)
	if err != nil {
		return nil, mem.Machine{}, err
	}
	switch machine {
	case "":
		return w, apps.MachineFor(w), nil
	case "knl", "default":
		return w, mem.DefaultKNL(), nil
	case "knl-optane":
		return w, mem.KNLOptane(), nil
	case "hbm-cxl":
		return w, mem.HBMCXL(), nil
	case "dual-socket-hbm":
		return w, mem.DualSocketHBM(), nil
	}
	return nil, mem.Machine{}, fmt.Errorf("advisord: unknown machine %q (knl|knl-optane|hbm-cxl|dual-socket-hbm)", machine)
}

// ServerConfig parameterizes a daemon instance.
type ServerConfig struct {
	// Workers bounds concurrent engine computations; each worker slot
	// owns one engine.Pool recycled across requests (0 = 4).
	Workers int
	// Cache is the persistent artifact tier (nil = memory-only).
	Cache *stage.Cache
	// Fault arms the seeded chaos hooks (nil = disabled).
	Fault *faultinject.Injector
}

// Server is the advisory daemon. One Server may serve many listeners
// and many connections concurrently; the expensive work — engine
// profiling runs and advisor solves — is sharded across the worker
// slots, and every artifact is memoized in memory and (when a Cache is
// configured) on disk.
type Server struct {
	cfg   ServerConfig
	pools chan *engine.Pool

	// The in-memory tier, one memo per artifact kind, each holding
	// just what a request reads: the decoded profile, the report bytes.
	profMemo sweep.Memo[*paramedir.Profile]
	repMemo  sweep.Memo[[]byte]

	mu       sync.Mutex // guards lns and orders it against closed
	lns      []net.Listener
	conns    sync.Map // net.Conn -> struct{}
	wg       sync.WaitGroup
	closed   atomic.Bool
	requests atomic.Int64
	connsN   atomic.Int64
	profiles atomic.Int64
	advises  atomic.Int64
}

// NewServer builds a daemon instance.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	s := &Server{cfg: cfg}
	s.pools = make(chan *engine.Pool, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		s.pools <- engine.NewPool()
	}
	return s
}

// Cache exposes the persistent tier (nil when memory-only).
func (s *Server) Cache() *stage.Cache { return s.cfg.Cache }

// Stats snapshots the daemon counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Conns:    s.connsN.Load(),
		Requests: s.requests.Load(),
		Profiles: s.profiles.Load(),
		Advises:  s.advises.Load(),
		Workers:  s.cfg.Workers,
	}
	if s.cfg.Cache != nil {
		st.Cache = s.cfg.Cache.Stats()
	}
	return st
}

// withPool runs fn holding one worker slot (and its engine pool),
// blocking while all slots are busy. This is what shards request work
// across the pool: at most Workers engine computations run at once,
// each on recycled simulator state — and pooled runs are bit-identical
// to fresh ones, so sharding never changes an artifact.
func (s *Server) withPool(fn func(p *engine.Pool) error) error {
	p := <-s.pools
	defer func() { s.pools <- p }()
	return fn(p)
}

// memoized resolves key through m, the in-memory tier: load — the
// disk tier, then the computation — runs only for the request that
// claims key, and concurrent requests for it share that one result.
// The attribution is CacheHitMem unless load ran for this request, and
// then whether the disk tier served it. A failed key is forgotten, so
// the error reaches only the requests that shared the failed call and
// the next request retries.
func memoized[V any](m *sweep.Memo[V], key string, load func() (V, bool, error)) (V, string, error) {
	src := CacheHitMem
	v, err := m.Do(sweep.Key(key), func() (V, error) {
		v, fromDisk, err := load()
		src = CacheMiss
		if fromDisk {
			src = CacheHitDisk
		}
		return v, err
	})
	if err != nil {
		m.Forget(sweep.Key(key))
	}
	return v, src, err
}

// stageProfile is the Stage 1+2 body the daemon runs; tests replace it
// to inject a failed computation.
var stageProfile = stage.Profile

// computeProfile is Stage 1+2 exactly as the library's Profile +
// Analyze entry points run it, on a worker slot's pooled simulator
// state — the artifacts are byte-identical to the in-process path.
func (s *Server) computeProfile(w *engine.Workload, p stage.ProfileParams) (*stage.ProfileArtifact, error) {
	s.profiles.Add(1)
	var art *stage.ProfileArtifact
	err := s.withPool(func(pool *engine.Pool) (err error) {
		art, err = stageProfile(w, p, engine.Config{Pool: pool})
		return err
	})
	return art, err
}

// computeAdvise is Stage 3 on a worker slot. The advisor is CPU-bound,
// not engine-bound, but it still takes a slot so a flood of
// exact-solver requests cannot oversubscribe the host.
func (s *Server) computeAdvise(prof *paramedir.Profile, mc advisor.MemoryConfig, strategy string) ([]byte, error) {
	s.advises.Add(1)
	var out []byte
	err := s.withPool(func(*engine.Pool) (err error) {
		out, err = adviseReport(prof, mc, strategy)
		return err
	})
	return out, err
}

// adviseReport is Stage 3 exactly as the library's Advise entry point
// runs it, returning the report file's bytes.
func adviseReport(prof *paramedir.Profile, mc advisor.MemoryConfig, strategy string) ([]byte, error) {
	strat, err := advisor.StrategyByName(strategy)
	if err != nil {
		return nil, err
	}
	rep, err := stage.Advise(context.Background(), prof, mc, strat, false, nil)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// session is the per-connection conversational state: the profile the
// client has established (by server-side profiling, upload, or sample
// streaming) and the running sample aggregation.
type session struct {
	prof      *paramedir.Profile
	sampleApp string
	samples   map[string]*paramedir.ObjectStat
	sampleTot int64
	unattr    int64
}

// ServeAddr listens on a TCP address and serves; it returns the bound
// listener so callers using ":0" can learn the port via Addr.
func (s *Server) ServeAddr(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	// Registered before the accept loop starts, so a Close that follows
	// at once still finds and closes the listener.
	s.listen(ln)
	go s.accept(ln) //nolint:errcheck // surfaced via Close
	return ln, nil
}

// listen registers ln for Close; on a closed server it closes ln at
// once.
func (s *Server) listen(ln net.Listener) {
	s.mu.Lock()
	closed := s.closed.Load()
	if !closed {
		s.lns = append(s.lns, ln)
	}
	s.mu.Unlock()
	if closed {
		ln.Close()
	}
}

func (s *Server) accept(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.connsN.Add(1)
		s.conns.Store(conn, struct{}{})
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.conns.Delete(conn)
			defer conn.Close()
			s.handleConn(conn)
		}()
	}
}

// Close stops accepting, drops every live connection, and waits for
// the handlers to drain. The in-memory memo dies with the server; the
// disk cache is the survivor — that is the restart contract the
// loadgen verifies.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed.Store(true)
	lns := s.lns
	s.lns = nil
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	s.conns.Range(func(k, _ any) bool {
		k.(net.Conn).Close()
		return true
	})
	s.wg.Wait()
	return nil
}

func (s *Server) handleConn(conn net.Conn) {
	sess := &session{}
	for {
		var req Request
		if err := ReadFrame(conn, &req); err != nil {
			return // disconnect (clean or abrupt) ends the conversation
		}
		resp := s.handle(&req, sess)
		if err := WriteFrame(conn, resp); err != nil {
			return
		}
	}
}

// handle dispatches one request against the connection's session.
func (s *Server) handle(req *Request, sess *session) *Response {
	s.requests.Add(1)
	resp := &Response{Op: req.Op}
	switch req.Op {
	case OpStats:
		st := s.Stats()
		resp.Stats = &st
		return resp
	case OpUploadProfile:
		prof, err := paramedir.ReadCSV(bytes.NewReader(req.ProfileCSV))
		if err != nil {
			resp.Err = err.Error()
			return resp
		}
		sess.prof = prof // client-supplied: nothing computed
		resp.Fingerprint = obs.StrongFingerprint(prof)
		resp.Cache = CacheHitMem
		return resp
	case OpSamples:
		s.ingestSamples(req, sess)
		resp.Samples = sess.sampleTot
		return resp
	case OpAdvise:
		return s.advise(req, sess)
	}
	resp.Err = fmt.Sprintf("advisord: unknown op %q", req.Op)
	return resp
}

// profileFor resolves a request's profile through the memo and cache,
// computing at most once per content key.
func (s *Server) profileFor(req *Request) (*paramedir.Profile, string, string, error) {
	if req.Workload == "" {
		return nil, "", "", fmt.Errorf("advisord: %s needs a workload name", req.Op)
	}
	w, machine, err := resolveWorkload(req.Workload, req.Machine)
	if err != nil {
		return nil, "", "", err
	}
	params := stage.ProfileParams{
		Machine:      machine,
		Cores:        req.Cores,
		Seed:         req.Seed,
		SamplePeriod: req.SamplePeriod,
		MinAllocSize: req.MinAllocSize,
		RefScale:     req.RefScale,
	}.Normalized()
	key := stage.ProfileKey(w, params)
	prof, src, err := memoized(&s.profMemo, key, func() (*paramedir.Profile, bool, error) {
		art, fromDisk, err := stage.Load(s.cfg.Cache, key, "profile", stage.EncodeProfileArtifact, stage.DecodeProfileArtifact,
			func() (*stage.ProfileArtifact, error) { return s.computeProfile(w, params) })
		if err != nil {
			return nil, false, err
		}
		return art.Profile, fromDisk, nil
	})
	if err != nil {
		return nil, "", "", err
	}
	return prof, key, src, nil
}

// ingestSamples folds one PEBS-style batch into the session aggregate.
func (s *Server) ingestSamples(req *Request, sess *session) {
	if sess.samples == nil || sess.sampleApp != req.App {
		sess.samples = make(map[string]*paramedir.ObjectStat)
		sess.sampleApp = req.App
		sess.sampleTot = 0
		sess.unattr = 0
	}
	for _, sm := range req.Samples {
		st, ok := sess.samples[sm.Object]
		if !ok {
			st = &paramedir.ObjectStat{ID: sm.Object, Static: sm.Static}
			if sm.Site != "" {
				st.Site = callstack.Key(sm.Site)
			}
			sess.samples[sm.Object] = st
		}
		st.Misses += sm.Misses
		st.AllocCount += sm.Allocs
		if sm.Size > st.MaxSize {
			st.MaxSize = sm.Size
		}
		sess.sampleTot += sm.Misses
	}
	sess.unattr += req.Unattributed
	sess.sampleTot += req.Unattributed
	// The aggregate supersedes any previously-established profile.
	sess.prof = nil
}

// sampleProfile reduces the session's sample aggregate to a Profile
// in Paramedir's object order (paramedir.SortObjects), so a sampled-up
// profile advises identically to an uploaded or computed one with the
// same content.
func (sess *session) sampleProfile(period uint64) *paramedir.Profile {
	p := &paramedir.Profile{
		App:          sess.sampleApp,
		SamplePeriod: period,
		TotalSamples: sess.sampleTot,
		Unattributed: sess.unattr,
	}
	p.Objects = make([]paramedir.ObjectStat, 0, len(sess.samples))
	for _, st := range sess.samples {
		p.Objects = append(p.Objects, *st)
	}
	paramedir.SortObjects(p.Objects)
	return p
}

// advise resolves the request's profile — a named workload's artifact
// (fresh or cached), the sample aggregate, or the one the conversation
// established earlier — then the report, each through memoized.
// The response attributes the coldest artifact touched; reuse of an
// already-established session profile costs nothing and counts as an
// in-memory hit.
func (s *Server) advise(req *Request, sess *session) *Response {
	resp := &Response{Op: req.Op}
	var prof *paramedir.Profile
	profSrc := CacheHitMem
	switch {
	case req.Workload != "":
		// An explicit workload always resolves through the memo —
		// naming a workload overrides whatever the session established.
		p, _, src, err := s.profileFor(req)
		if err != nil {
			resp.Err = err.Error()
			return resp
		}
		prof = p
		profSrc = src
		sess.prof = prof
	case sess.prof != nil:
		prof = sess.prof // established earlier in the conversation
	case len(sess.samples) > 0:
		period := req.SamplePeriod
		if period == 0 {
			period = online.DefaultSamplePeriod
		}
		prof = sess.sampleProfile(period)
		sess.prof = prof
	default:
		resp.Err = "advisord: advise without a profile (profile, upload-profile or samples first, or name a workload)"
		return resp
	}
	if req.Budget <= 0 {
		resp.Err = "advisord: advise needs a positive budget"
		return resp
	}
	strategy := req.Strategy
	if strategy == "" {
		strategy = "misses"
	}
	mc := advisor.TwoTier(req.Budget)
	key := stage.AdviseKey(prof, obs.StrongFingerprint(mc), strategy)
	report, src, err := memoized(&s.repMemo, key, func() ([]byte, bool, error) {
		asIs := func(b []byte) ([]byte, error) { return b, nil }
		return stage.Load(s.cfg.Cache, key, "report", asIs, asIs,
			func() ([]byte, error) { return s.computeAdvise(prof, mc, strategy) })
	})
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	resp.Report = report
	resp.Fingerprint = key
	resp.Cache = colder(src, profSrc)
	return resp
}

// FaultDisconnectVictims implements the client-disconnect chaos point for
// in-process harnesses: victim selection over nClients, for callers
// that sever victims' connections mid-conversation.
func FaultDisconnectVictims(f *faultinject.Injector, nClients int) []bool {
	return f.Victims(faultinject.ClientDisconnect, nClients)
}
