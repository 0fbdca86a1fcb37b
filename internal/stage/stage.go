// Package stage is the one implementation of the framework's Stages
// 1–3 — the Extrae-style monitored run reduced by Paramedir, and the
// hmem_advisor that turns its profile into a placement report — and of
// everything that lets their artifacts be reused: the content keys,
// the artifact codecs and the content-addressed on-disk Cache. The
// root package's Profile/Pipeline/RunSweep, cmd/hmemadvisor and the
// advisory daemon all run their profiles and reports through it, so an
// artifact computed by any of them is byte-identical to one computed
// by another, in this process or in another.
package stage

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/advisor"
	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/paramedir"
	"repro/internal/trace"
	"repro/internal/units"
)

// ProfileParams are the knobs of a profiling run that shape its
// artifacts — exactly the fields the root package's ProfileConfig
// feeds the engine. Zero values take the defaults Normalized spells
// out; key only normalized params (see ProfileKey), so "0 = default"
// and the explicit default cannot produce two keys for one artifact.
type ProfileParams struct {
	Machine      mem.Machine
	Cores        int
	Seed         uint64
	SamplePeriod uint64
	MinAllocSize int64
	RefScale     float64
}

// Normalized fills a ProfileParams' defaults — SamplePeriod to the
// scaled paper period, MinAllocSize to 4 KB, Cores to the machine's,
// RefScale to 1. It is the one owner of the profiling defaults: Monitor
// takes its monitor settings from here, and the engine defaults Cores
// and RefScale exactly this way itself.
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

// ProfileKey content-addresses a Profile+Analyze artifact: the
// canonical fingerprint of the workload's full structure plus every
// profiling parameter the trace depends on. Two equal keys mean
// byte-identical profiling runs — in this process, in another process,
// or last week's CI run — which is what lets the sweep engine's
// persistent memo tier and the daemon's artifact cache share work
// across invocations. Pass normalized params.
func ProfileKey(w *engine.Workload, p ProfileParams) string {
	return obs.StrongFingerprint(struct {
		Kind     string
		Workload *engine.Workload
		Params   ProfileParams
	}{Kind: "profile", Workload: w, Params: p})
}

// AdviseKey content-addresses an advisor report: the canonical
// fingerprint of the profile CONTENT (not its provenance), the memory
// configuration packed against, and the strategy name. The strategy is
// keyed by name rather than value on purpose: the name is the wire
// identity, and every named strategy is a pure function of its name
// (misses thresholds are part of the name).
func AdviseKey(prof *paramedir.Profile, mcFP string, strategy string) string {
	return obs.StrongFingerprint(struct {
		Kind     string
		Profile  *paramedir.Profile
		Memory   string
		Strategy string
	}{Kind: "advise", Profile: prof, Memory: mcFP, Strategy: strategy})
}

// Monitor runs w with Extrae-style instrumentation and PEBS sampling —
// the one monitored-run configuration. run supplies what p does not:
// the placement policy and manifest tag, and the optional recorder,
// context and pool. Cores and RefScale reach the engine as given (the
// run manifest records them raw); only the monitor settings are
// defaulted here.
func Monitor(w *engine.Workload, p ProfileParams, run engine.Config) (*engine.Result, error) {
	n := p.Normalized()
	run.Machine, run.Cores, run.Seed, run.RefScale = p.Machine, p.Cores, p.Seed, p.RefScale
	run.Monitor = &engine.MonitorConfig{SamplePeriod: n.SamplePeriod, MinAllocSize: n.MinAllocSize}
	return engine.Run(w, run)
}

// Profile is Stage 1+2: the monitored run of w on the DDR placement,
// reduced by Paramedir. run supplies the optional recorder, context
// and pool; none of them changes the artifact.
func Profile(w *engine.Workload, p ProfileParams, run engine.Config) (*ProfileArtifact, error) {
	run.MakePolicy, run.Tag = baseline.DDR(), "profile"
	res, err := Monitor(w, p, run)
	if err != nil {
		return nil, fmt.Errorf("profile stage: %w", err)
	}
	prof, err := paramedir.Analyze(res.Trace)
	if err != nil {
		return nil, fmt.Errorf("analyze stage: %w", err)
	}
	return &ProfileArtifact{Trace: res.Trace, Run: res, Profile: prof}, nil
}

// Advise is Stage 3: it packs prof's objects over mc with strat and
// returns the placement report. With timeAware it budgets each tier
// against the peak concurrent footprint of the profile's liveness
// timeline (advisor.AdviseTimeAware); that packer has no recorder
// seam, so rec is ignored and a trace of it carries no pack events.
// Otherwise it is the stock waterfall (advisor.Advise), recording into
// rec when it is non-nil. ctx is polled only by the exact solver.
func Advise(ctx context.Context, prof *paramedir.Profile, mc advisor.MemoryConfig, strat advisor.Strategy, timeAware bool, rec *obs.Recorder) (*advisor.Report, error) {
	if prof == nil {
		return nil, fmt.Errorf("stage: nil profile")
	}
	if timeAware {
		return advisor.AdviseTimeAware(prof.App, advisor.FromProfileTimed(prof), mc, strat)
	}
	return advisor.Advise(ctx, prof.App, advisor.FromProfile(prof), mc, strat, rec)
}

// Load is the disk tier: it returns key's value from c when the entry
// is there and decodes, and otherwise computes it and commits its
// encoding as the entry's body. An entry whose checksum verifies but
// whose body does not decode (one written by an incompatible codec) is
// dropped and recomputed, and a failed encode or commit only skips the
// write: a cache can slow a caller down, never sink it. fromDisk
// reports a hit; a nil c always computes.
func Load[V any](c *Cache, key, kind string, encode func(V) ([]byte, error), decode func([]byte) (V, error), compute func() (V, error)) (v V, fromDisk bool, err error) {
	if c != nil {
		if body, ok := c.Get(key); ok {
			if v, err := decode(body); err == nil {
				return v, true, nil
			}
			c.Drop(key)
		}
	}
	if v, err = compute(); err != nil || c == nil {
		return v, false, err
	}
	if body, err := encode(v); err == nil {
		_ = c.Put(key, kind, body)
	}
	return v, false, nil
}

// ProfileArtifact is a profiling run's full artifact set, as stored in
// and recovered from the cache. Every field round-trips exactly: the
// trace codec is integer-based and the profile CSV and result JSON
// preserve all fields bit-for-bit.
type ProfileArtifact struct {
	Trace   *trace.Trace
	Run     *engine.Result
	Profile *paramedir.Profile
}

// EncodeProfileArtifact serializes a profiling artifact into one cache
// entry body: the trace in its own codec, the run result as JSON (its
// Trace pointer nilled, reattached on decode) and the profile as
// Paramedir CSV, each behind an 8-byte big-endian length. Every part
// is written straight into the one buffer.
func EncodeProfileArtifact(a *ProfileArtifact) ([]byte, error) {
	run := *a.Run
	run.Trace = nil
	var buf bytes.Buffer
	for _, write := range []func(io.Writer) error{
		a.Trace.Write,
		func(w io.Writer) error { return json.NewEncoder(w).Encode(&run) },
		a.Profile.WriteCSV,
	} {
		at := buf.Len()
		buf.Write(make([]byte, 8))
		if err := write(&buf); err != nil {
			return nil, err
		}
		binary.BigEndian.PutUint64(buf.Bytes()[at:], uint64(buf.Len()-at-8))
	}
	return buf.Bytes(), nil
}

// DecodeProfileArtifact recovers a profiling artifact from a cache
// entry body written by EncodeProfileArtifact. A length that runs past
// the body, or bytes after the last part, is an error.
func DecodeProfileArtifact(b []byte) (*ProfileArtifact, error) {
	var parts [3][]byte
	for i := range parts {
		if len(b) < 8 {
			return nil, fmt.Errorf("stage: profile entry: part %d: truncated length", i)
		}
		n := binary.BigEndian.Uint64(b)
		if b = b[8:]; n > uint64(len(b)) {
			return nil, fmt.Errorf("stage: profile entry: part %d: length %d overruns the %d bytes left", i, n, len(b))
		}
		parts[i], b = b[:n], b[n:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("stage: profile entry: %d bytes after the last part", len(b))
	}
	tr, err := trace.Read(bytes.NewReader(parts[0]))
	if err != nil {
		return nil, err
	}
	run := new(engine.Result)
	if err := json.Unmarshal(parts[1], run); err != nil {
		return nil, err
	}
	run.Trace = tr
	prof, err := paramedir.ReadCSV(bytes.NewReader(parts[2]))
	if err != nil {
		return nil, err
	}
	return &ProfileArtifact{Trace: tr, Run: run, Profile: prof}, nil
}
