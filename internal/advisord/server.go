package advisord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/advisor"
	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/callstack"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/paramedir"
	"repro/internal/trace"
	"repro/internal/units"
)

// Normalized fills a ProfileParams' defaults exactly the way the
// library's ProfileConfig.fill and the engine do — SamplePeriod to the
// scaled paper period, MinAllocSize to 4 KB, Cores to the machine's,
// RefScale to 1 — so "take the default" and "spell the default out"
// content-address the same artifact.
func (p ProfileParams) Normalized() ProfileParams {
	if p.SamplePeriod == 0 {
		p.SamplePeriod = online.DefaultSamplePeriod
	}
	if p.MinAllocSize == 0 {
		p.MinAllocSize = 4 * units.KB
	}
	if p.Cores <= 0 {
		p.Cores = p.Machine.Cores
	}
	if p.RefScale <= 0 {
		p.RefScale = 1
	}
	return p
}

// MachineByName resolves the shipped machine configurations by the
// names the CLIs use; "" resolves to the workload's canonical per-rank
// machine and is handled by the caller.
func MachineByName(name string) (mem.Machine, error) {
	switch name {
	case "knl", "default":
		return mem.DefaultKNL(), nil
	case "knl-optane":
		return mem.KNLOptane(), nil
	case "hbm-cxl":
		return mem.HBMCXL(), nil
	case "dual-socket-hbm":
		return mem.DualSocketHBM(), nil
	}
	return mem.Machine{}, fmt.Errorf("advisord: unknown machine %q (knl|knl-optane|hbm-cxl|dual-socket-hbm)", name)
}

// Artifact file names inside cache entries.
const (
	fileTrace      = "trace.prv"
	fileProfileRun = "profrun.json"
	fileProfileCSV = "profile.csv"
	fileReport     = "report.tsv"
)

// ProfileArtifact is a profiling run's full artifact set, as stored in
// and recovered from the cache. Every field round-trips exactly: the
// trace codec is integer-based and the profile CSV and result JSON
// preserve all fields bit-for-bit.
type ProfileArtifact struct {
	Trace   *trace.Trace
	Run     *engine.Result
	Profile *paramedir.Profile
}

// EncodeProfileArtifact serializes a profiling artifact into cache
// entry files. The trace is stored once, in its own codec; the run
// result's Trace pointer is nilled in the JSON and reattached on
// decode.
func EncodeProfileArtifact(a *ProfileArtifact) (map[string][]byte, error) {
	var tb bytes.Buffer
	if err := a.Trace.Write(&tb); err != nil {
		return nil, err
	}
	run := *a.Run
	run.Trace = nil
	rb, err := json.Marshal(&run)
	if err != nil {
		return nil, err
	}
	var pb bytes.Buffer
	if err := a.Profile.WriteCSV(&pb); err != nil {
		return nil, err
	}
	return map[string][]byte{
		fileTrace:      tb.Bytes(),
		fileProfileRun: rb,
		fileProfileCSV: pb.Bytes(),
	}, nil
}

// DecodeProfileArtifact recovers a profiling artifact from cache entry
// files.
func DecodeProfileArtifact(files map[string][]byte) (*ProfileArtifact, error) {
	tb, ok := files[fileTrace]
	if !ok {
		return nil, fmt.Errorf("advisord: profile entry missing %s", fileTrace)
	}
	tr, err := trace.Read(bytes.NewReader(tb))
	if err != nil {
		return nil, err
	}
	rb, ok := files[fileProfileRun]
	if !ok {
		return nil, fmt.Errorf("advisord: profile entry missing %s", fileProfileRun)
	}
	run := new(engine.Result)
	if err := json.Unmarshal(rb, run); err != nil {
		return nil, err
	}
	run.Trace = tr
	pb, ok := files[fileProfileCSV]
	if !ok {
		return nil, fmt.Errorf("advisord: profile entry missing %s", fileProfileCSV)
	}
	prof, err := paramedir.ReadCSV(bytes.NewReader(pb))
	if err != nil {
		return nil, err
	}
	return &ProfileArtifact{Trace: tr, Run: run, Profile: prof}, nil
}

// ServerConfig parameterizes a daemon instance.
type ServerConfig struct {
	// Workers bounds concurrent engine computations; each worker slot
	// owns one engine.Pool recycled across requests (0 = 4).
	Workers int
	// Cache is the persistent artifact tier (nil = memory-only).
	Cache *Cache
	// Fault arms the seeded chaos hooks (nil = disabled).
	Fault *faultinject.Injector
}

// memoEntry is one singleflight slot of the in-memory memo: the first
// requester computes (or loads from disk) under once, everyone else
// waits on it and shares the files.
type memoEntry struct {
	once  sync.Once
	files map[string][]byte
	src   string
	err   error
}

// Server is the advisory daemon. One Server may serve many listeners
// and many connections concurrently; the expensive work — engine
// profiling runs and advisor solves — is sharded across the worker
// slots, and every artifact is memoized in memory and (when a Cache is
// configured) on disk.
type Server struct {
	cfg   ServerConfig
	pools chan *engine.Pool

	mu   sync.Mutex
	memo map[string]*memoEntry

	conns    sync.Map // net.Conn -> struct{}
	wg       sync.WaitGroup
	closed   atomic.Bool
	ln       net.Listener
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
	s := &Server{cfg: cfg, memo: make(map[string]*memoEntry)}
	s.pools = make(chan *engine.Pool, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		s.pools <- engine.NewPool()
	}
	return s
}

// Cache exposes the persistent tier (nil when memory-only).
func (s *Server) Cache() *Cache { return s.cfg.Cache }

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

// artifact is the memo spine: resolve key through the in-memory memo,
// then the disk cache, then compute — concurrent requests for one key
// collapse into a single computation. The returned src attribution is
// CacheHitMem when another request already owned the entry, otherwise
// whatever the owning computation found (disk hit or miss).
func (s *Server) artifact(key, kind string, compute func() (map[string][]byte, error)) (map[string][]byte, string, error) {
	s.mu.Lock()
	e, existed := s.memo[key]
	if !existed {
		e = &memoEntry{}
		s.memo[key] = e
	}
	s.mu.Unlock()

	e.once.Do(func() {
		if c := s.cfg.Cache; c != nil {
			if files, ok := c.Get(key); ok {
				e.files, e.src = files, CacheHitDisk
				return
			}
		}
		files, err := compute()
		if err != nil {
			e.err = err
			// Leave no poisoned memo behind: the next request retries.
			s.mu.Lock()
			delete(s.memo, key)
			s.mu.Unlock()
			return
		}
		e.files, e.src = files, CacheMiss
		if c := s.cfg.Cache; c != nil {
			_ = c.Put(key, kind, files)
		}
	})
	if e.err != nil {
		return nil, "", e.err
	}
	if existed {
		return e.files, CacheHitMem, nil
	}
	return e.files, e.src, nil
}

// computeProfile is Stage 1+2 exactly as the library's Profile +
// Analyze entry points run them: a DDR-placement run with Extrae-style
// instrumentation, reduced by Paramedir — the artifacts are
// byte-identical to the in-process path.
func (s *Server) computeProfile(w *engine.Workload, p ProfileParams) (map[string][]byte, error) {
	s.profiles.Add(1)
	var art ProfileArtifact
	err := s.withPool(func(pool *engine.Pool) error {
		res, err := engine.Run(w, engine.Config{
			Machine:    p.Machine,
			Cores:      p.Cores,
			Seed:       p.Seed,
			MakePolicy: baseline.DDR(),
			RefScale:   p.RefScale,
			Tag:        "profile",
			Pool:       pool,
			Monitor: &engine.MonitorConfig{
				SamplePeriod: p.SamplePeriod,
				MinAllocSize: p.MinAllocSize,
			},
		})
		if err != nil {
			return err
		}
		prof, err := paramedir.Analyze(res.Trace)
		if err != nil {
			return err
		}
		art = ProfileArtifact{Trace: res.Trace, Run: res, Profile: prof}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return EncodeProfileArtifact(&art)
}

// computeAdvise is Stage 3 exactly as the library's Advise entry point
// runs it. The advisor is CPU-bound, not engine-bound, but it still
// takes a worker slot so a flood of exact-solver requests cannot
// oversubscribe the host.
func (s *Server) computeAdvise(prof *paramedir.Profile, mc advisor.MemoryConfig, strategy string) (map[string][]byte, error) {
	s.advises.Add(1)
	strat, err := advisor.StrategyByName(strategy)
	if err != nil {
		return nil, err
	}
	var out map[string][]byte
	err = s.withPool(func(*engine.Pool) error {
		rep, err := advisor.Advise(context.Background(), prof.App, advisor.FromProfile(prof), mc, strat, nil, nil)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := rep.Write(&buf); err != nil {
			return err
		}
		out = map[string][]byte{fileReport: buf.Bytes()}
		return nil
	})
	return out, err
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

// Serve accepts connections on ln until Close. Each connection gets a
// goroutine; requests within a connection are handled sequentially
// (the protocol is strict request/response), while expensive work is
// sharded across the worker slots.
func (s *Server) Serve(ln net.Listener) error {
	s.ln = ln
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

// ServeAddr listens on a TCP address and serves; it returns the bound
// listener so callers using ":0" can learn the port via Addr.
func (s *Server) ServeAddr(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go s.Serve(ln) //nolint:errcheck // surfaced via Close
	return ln, nil
}

// Close stops accepting, drops every live connection, and waits for
// the handlers to drain. The in-memory memo dies with the server; the
// disk cache is the survivor — that is the restart contract the
// loadgen verifies.
func (s *Server) Close() error {
	s.closed.Store(true)
	if s.ln != nil {
		s.ln.Close()
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
	case OpPing:
		return resp
	case OpStats:
		st := s.Stats()
		resp.Stats = &st
		return resp
	case OpProfile:
		art, key, src, err := s.profileFor(req)
		if err != nil {
			resp.Err = err.Error()
			return resp
		}
		sess.prof = art.Profile
		var buf bytes.Buffer
		if err := art.Profile.WriteCSV(&buf); err != nil {
			resp.Err = err.Error()
			return resp
		}
		resp.ProfileCSV = buf.Bytes()
		resp.Fingerprint = key
		resp.Cache = src
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

// profileFor resolves a request's profiling artifact through the memo
// and cache, computing at most once per content key.
func (s *Server) profileFor(req *Request) (*ProfileArtifact, string, string, error) {
	if req.Workload == "" {
		return nil, "", "", fmt.Errorf("advisord: %s needs a workload name", req.Op)
	}
	w, err := apps.ByName(req.Workload)
	if err != nil {
		return nil, "", "", err
	}
	var machine mem.Machine
	if req.Machine == "" {
		machine = apps.MachineFor(w)
	} else {
		machine, err = MachineByName(req.Machine)
		if err != nil {
			return nil, "", "", err
		}
	}
	params := ProfileParams{
		Machine:      machine,
		Cores:        req.Cores,
		Seed:         req.Seed,
		SamplePeriod: req.SamplePeriod,
		MinAllocSize: req.MinAllocSize,
		RefScale:     req.RefScale,
	}.Normalized()
	key := ProfileKey(w, params)
	for attempt := 0; ; attempt++ {
		files, src, err := s.artifact(key, "profile", func() (map[string][]byte, error) {
			return s.computeProfile(w, params)
		})
		if err != nil {
			return nil, "", "", err
		}
		art, err := DecodeProfileArtifact(files)
		if err == nil {
			return art, key, src, nil
		}
		if attempt > 0 {
			return nil, "", "", err
		}
		// Checksums passed but the payload does not decode (an entry
		// from an incompatible codec): drop it everywhere and recompute
		// once.
		if s.cfg.Cache != nil {
			s.cfg.Cache.Drop(key)
		}
		s.mu.Lock()
		delete(s.memo, key)
		s.mu.Unlock()
	}
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
// ordered exactly the way paramedir orders its reductions — misses
// descending, ID ascending — so a sampled-up profile advises
// identically to an uploaded or computed one with the same content.
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
	sort.Slice(p.Objects, func(i, j int) bool {
		if p.Objects[i].Misses != p.Objects[j].Misses {
			return p.Objects[i].Misses > p.Objects[j].Misses
		}
		return p.Objects[i].ID < p.Objects[j].ID
	})
	return p
}

// advise resolves the request's profile — a named workload's artifact
// (fresh or cached), the sample aggregate, or the one the conversation
// established earlier — then the report, each through the memo spine.
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
		art, _, src, err := s.profileFor(req)
		if err != nil {
			resp.Err = err.Error()
			return resp
		}
		prof = art.Profile
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
	key := AdviseKey(prof, obs.StrongFingerprint(mc), strategy)
	files, src, err := s.artifact(key, "report", func() (map[string][]byte, error) {
		return s.computeAdvise(prof, mc, strategy)
	})
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	resp.Report = files[fileReport]
	resp.Fingerprint = key
	resp.Cache = colder(src, profSrc)
	return resp
}

// faultDisconnect implements the client-disconnect chaos point for
// in-process harnesses: victim selection over nClients, for callers
// that sever victims' connections mid-conversation.
func FaultDisconnectVictims(f *faultinject.Injector, nClients int) []bool {
	return f.Victims(faultinject.ClientDisconnect, nClients)
}
