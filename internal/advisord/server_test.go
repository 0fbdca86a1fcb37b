package advisord

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/paramedir"
	"repro/internal/stage"
	"repro/internal/units"
)

// startServer spins up a daemon on a loopback port with the given
// cache directory ("" = memory-only) and tears it down with the test.
func startServer(t *testing.T, cacheDir string, workers int) (*Server, string) {
	t.Helper()
	var cache *stage.Cache
	if cacheDir != "" {
		var err error
		if cache, err = stage.OpenCache(cacheDir, nil); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(ServerConfig{Workers: workers, Cache: cache})
	ln, err := srv.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

var testParams = stage.ProfileParams{Seed: 7, RefScale: 0.25}

// TestDaemonReportByteIdenticalToLocal is the core contract: the
// report a daemon serves over the wire — through the worker pool, the
// memo and the cache — is byte-for-byte the report an in-process
// advise computes.
func TestDaemonReportByteIdenticalToLocal(t *testing.T) {
	_, addr := startServer(t, t.TempDir(), 2)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	got, err := cl.AdviseWorkload("minife", "", testParams, 64*units.MB, "misses")
	if err != nil {
		t.Fatal(err)
	}
	if got.Cache != CacheMiss {
		t.Fatalf("first request attribution %q, want miss", got.Cache)
	}
	want, err := LocalAdvise("minife", "", testParams, 64*units.MB, "misses")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.ReportBytes, want) {
		t.Fatalf("daemon report differs from local advise:\n%s\n---\n%s", got.ReportBytes, want)
	}

	// Same request again: in-memory hit, same bytes.
	again, err := cl.AdviseWorkload("minife", "", testParams, 64*units.MB, "misses")
	if err != nil {
		t.Fatal(err)
	}
	if again.Cache != CacheHitMem {
		t.Fatalf("repeat attribution %q, want hit-mem", again.Cache)
	}
	if !bytes.Equal(again.ReportBytes, want) {
		t.Fatal("warm report differs from cold")
	}
}

// TestDaemonRestartServesFromDisk: a fresh server over the same cache
// directory — a new daemon process, as far as the artifacts are
// concerned — serves the same bytes, attributed to disk. This is the
// end-to-end proof that config fingerprints are stable across
// processes: any process state in the key would make the restarted
// daemon miss.
func TestDaemonRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	srv1, addr1 := startServer(t, dir, 1)
	cl, err := Dial(addr1)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := cl.AdviseWorkload("minife", "", testParams, 64*units.MB, "misses")
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	srv1.Close()

	_, addr2 := startServer(t, dir, 1)
	cl2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	warm, err := cl2.AdviseWorkload("minife", "", testParams, 64*units.MB, "misses")
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache != CacheHitDisk {
		t.Fatalf("restart attribution %q, want hit-disk", warm.Cache)
	}
	if warm.Fingerprint != cold.Fingerprint {
		t.Fatalf("fingerprint drifted across restart: %s vs %s", warm.Fingerprint, cold.Fingerprint)
	}
	if !bytes.Equal(warm.ReportBytes, cold.ReportBytes) {
		t.Fatal("restarted daemon served different report bytes")
	}
}

// TestProfileUploadAndSampleConversations: the three ways to establish
// a profile — server-side profiling, CSV upload, and PEBS-style sample
// streaming — advise identically when they carry the same content.
func TestProfileUploadAndSampleConversations(t *testing.T) {
	_, addr := startServer(t, "", 1)

	// The profile CSV a client would ship, computed in process.
	w, m, err := resolveWorkload("minife", "")
	if err != nil {
		t.Fatal(err)
	}
	params := testParams
	params.Machine = m
	art, err := stage.Profile(w, params.Normalized(), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := art.Profile.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	prof, err := paramedir.ReadCSV(bytes.NewReader(csv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Objects) == 0 {
		t.Fatal("empty profile")
	}

	// 1. Server-side profile.
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	repProfiled, err := cl.AdviseWorkload("minife", "", testParams, 64*units.MB, "misses")
	if err != nil {
		t.Fatal(err)
	}

	// 2. Upload the CSV on a fresh conversation.
	cl2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if _, err := cl2.UploadProfile(csv.Bytes()); err != nil {
		t.Fatal(err)
	}
	repUploaded, err := cl2.Advise(64*units.MB, "misses")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repProfiled.ReportBytes, repUploaded.ReportBytes) {
		t.Fatal("uploaded-profile advise differs from server-profiled advise")
	}
	if repProfiled.Fingerprint != repUploaded.Fingerprint {
		t.Fatal("same profile content keyed two advise artifacts")
	}

	// 3. Stream the profile as sample batches (two batches, split and
	// unordered, with per-batch partial misses): the aggregate must
	// advise the same placement. The advisor reads ID, size, misses
	// and the static flag — exactly what samples carry.
	objs := prof.Objects
	var b1, b2 []Sample
	for i, o := range objs {
		half := o.Misses / 2
		s1 := Sample{Object: o.ID, Site: string(o.Site), Static: o.Static, Size: o.MaxSize, Misses: half, Allocs: o.AllocCount}
		s2 := Sample{Object: o.ID, Site: string(o.Site), Static: o.Static, Size: o.MaxSize, Misses: o.Misses - half}
		if i%2 == 0 {
			b1, b2 = append(b1, s1), append(b2, s2)
		} else {
			b2, b1 = append(b2, s1), append(b1, s2)
		}
	}
	cl3, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl3.Close()
	if _, err := cl3.SendSamples(prof.App, b1, 0); err != nil {
		t.Fatal(err)
	}
	total, err := cl3.SendSamples(prof.App, b2, prof.Unattributed)
	if err != nil {
		t.Fatal(err)
	}
	wantTotal := prof.TotalSamples
	if total != wantTotal {
		t.Fatalf("sample aggregate %d, want %d", total, wantTotal)
	}
	repSampled, err := cl3.Advise(64*units.MB, "misses")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repSampled.ReportBytes, repProfiled.ReportBytes) {
		t.Fatalf("sampled-up advise differs from profiled advise:\n%s\n---\n%s",
			repSampled.ReportBytes, repProfiled.ReportBytes)
	}
}

// TestConcurrentClients hammers one daemon from many goroutines with a
// mix of distinct and shared requests; every response must be correct
// and the daemon must survive abrupt disconnects in the middle.
func TestConcurrentClients(t *testing.T) {
	srv, addr := startServer(t, t.TempDir(), 2)
	const clients = 6
	var wg sync.WaitGroup
	errs := make([]error, clients)
	reports := make([][]byte, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs[c] = err
				return
			}
			defer cl.Close()
			// Half the clients share one request; half are distinct.
			params := testParams
			if c%2 == 1 {
				params.Seed = uint64(100 + c)
			}
			res, err := cl.AdviseWorkload("minife", "", params, 64*units.MB, "misses")
			if err != nil {
				errs[c] = err
				return
			}
			reports[c] = res.ReportBytes
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	// The sharing clients all saw identical bytes.
	for c := 2; c < clients; c += 2 {
		if !bytes.Equal(reports[0], reports[c]) {
			t.Fatalf("clients 0 and %d share a request but got different reports", c)
		}
	}

	// An abrupt disconnect mid-conversation must not take the daemon
	// down.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_ = WriteFrame(raw, &Request{Op: OpAdvise, Workload: "minife", Seed: 7, RefScale: 0.25, Budget: 64 * units.MB, Strategy: "misses"})
	raw.Close() // vanish before the response
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := ping(cl); err != nil {
		t.Fatalf("daemon unreachable after abrupt disconnect: %v", err)
	}
	if srv.Stats().Requests == 0 {
		t.Fatal("no requests counted")
	}
}

// TestServerErrors: protocol-level failures come back as typed error
// responses, not dropped connections.
func TestServerErrors(t *testing.T) {
	_, addr := startServer(t, "", 1)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Advise(64*units.MB, "misses"); err == nil {
		t.Fatal("advise without a profile accepted")
	}
	if _, err := cl.AdviseWorkload("no-such-app", "", testParams, 64*units.MB, "misses"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := cl.AdviseWorkload("minife", "no-such-machine", testParams, 64*units.MB, "misses"); err == nil {
		t.Fatal("unknown machine accepted")
	}
	if _, err := cl.AdviseWorkload("minife", "", testParams, 64*units.MB, "bogus-strategy"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, err := cl.AdviseWorkload("minife", "", testParams, 0, "misses"); err == nil {
		t.Fatal("zero budget accepted")
	}
	// The connection survives every error.
	if err := ping(cl); err != nil {
		t.Fatal(err)
	}
}

// TestLoadgen runs the full self-benchmark small: attributions must be
// exact per phase and the daemon byte-identical to local. (The 10x
// warm-speedup gate is asserted by cmd/advisord with production sizes,
// not here — a 2x2 run is too small for stable timing.)
func TestLoadgen(t *testing.T) {
	rep, err := Loadgen(LoadgenOptions{
		Clients: 2, Requests: 2, CacheDir: t.TempDir(), RefScale: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := rep.Clients * rep.Requests
	if rep.Cold.Mix[CacheMiss] != total {
		t.Fatalf("cold mix %v, want %d misses", rep.Cold.Mix, total)
	}
	if rep.Warm.Mix[CacheHitMem] != total {
		t.Fatalf("warm mix %v, want %d hit-mem", rep.Warm.Mix, total)
	}
	if rep.Restart.Mix[CacheHitDisk] != total {
		t.Fatalf("restart mix %v, want %d hit-disk", rep.Restart.Mix, total)
	}
	if !rep.Identical {
		t.Fatal("daemon reports not byte-identical to local advise")
	}
}

// TestLoadgenClientDisconnectChaos: with the client-disconnect point
// armed, victim clients sever their connection mid-conversation; the
// loadgen must still complete, count the injected disconnects, and the
// surviving clients' phases must be healthy.
func TestLoadgenClientDisconnectChaos(t *testing.T) {
	inj := faultinject.New(7, faultinject.Spec{ClientDisconnects: 1})
	rep, err := Loadgen(LoadgenOptions{
		Clients: 3, Requests: 2, CacheDir: t.TempDir(), RefScale: 0.25,
		Fault: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Disconnects != 1 {
		t.Fatalf("disconnects = %d, want 1", rep.Disconnects)
	}
	if got := inj.Counts()[faultinject.ClientDisconnect]; got != 1 {
		t.Fatalf("injector tally = %d, want 1", got)
	}
	total := rep.Clients * rep.Requests
	// Every request still answered; the severed request may have been
	// computed server-side before the redial, so the redialed repeat
	// can legally be a hit.
	var cold int
	for _, n := range rep.Cold.Mix {
		cold += n
	}
	if cold != total {
		t.Fatalf("cold phase answered %d of %d requests: %v", cold, total, rep.Cold.Mix)
	}
	if rep.Warm.Mix[CacheHitMem] != total {
		t.Fatalf("warm mix %v, want %d hit-mem", rep.Warm.Mix, total)
	}
	if !rep.Identical {
		t.Fatal("chaos run broke byte identity")
	}
}

// TestCloseRightAfterServeAddr: a Close issued the moment ServeAddr
// returns must still close the listener — no connection is accepted
// afterwards — and must not race the accept loop's start (run under
// -race).
func TestCloseRightAfterServeAddr(t *testing.T) {
	for i := 0; i < 20; i++ {
		srv := NewServer(ServerConfig{Workers: 1})
		ln, err := srv.ServeAddr("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv.Close()
		if conn, err := net.Dial("tcp", ln.Addr().String()); err == nil {
			conn.Close()
			t.Fatalf("iteration %d: listener still accepts after Close", i)
		}
	}
}

// TestDaemonRetriesAfterFailedProfile: a failed profile computation
// fails its request without poisoning the key — the next request for
// the same key recomputes, succeeds and attributes a miss.
func TestDaemonRetriesAfterFailedProfile(t *testing.T) {
	boom := errors.New("profile run refused")
	var calls atomic.Int64
	stageProfile = func(w *engine.Workload, p stage.ProfileParams, run engine.Config) (*stage.ProfileArtifact, error) {
		if calls.Add(1) == 1 {
			return nil, boom
		}
		return stage.Profile(w, p, run)
	}
	t.Cleanup(func() { stageProfile = stage.Profile })

	srv, addr := startServer(t, t.TempDir(), 1)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.AdviseWorkload("minife", "", testParams, 64*units.MB, "misses"); err == nil || !strings.Contains(err.Error(), boom.Error()) {
		t.Fatalf("first request err = %v, want the failed computation's", err)
	}
	got, err := cl.AdviseWorkload("minife", "", testParams, 64*units.MB, "misses")
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if got.Cache != CacheMiss {
		t.Fatalf("retry attribution %q, want miss", got.Cache)
	}
	if st := srv.Stats(); st.Profiles != 2 || calls.Load() != 2 {
		t.Fatalf("profiles computed = %d (stage calls %d), want 2", st.Profiles, calls.Load())
	}
}

// ping runs one stats round trip: the daemon answers a live
// connection.
func ping(cl *Client) error {
	_, err := cl.Stats()
	return err
}
