package paramedir_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/advisor"
	"repro/internal/callstack"
	"repro/internal/mem"
	"repro/internal/paramedir"
	"repro/internal/predict"
	"repro/internal/trace"
)

// FuzzTraceReplay feeds arbitrary trace files to every consumer of the
// trace replay: Paramedir, pattern classification, hot ranges and the
// predictor. None may panic, every rejection must come with an error,
// and whenever Paramedir accepts a trace each object's miss count must
// equal the samples the hot-range walk attributed to it. The seed
// corpus (testdata/fuzz/FuzzTraceReplay) holds a cgpop profiling trace
// as trace.Write emits it plus hand-written edge cases.
func FuzzTraceReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Read(bytes.NewReader(data))
		if (tr == nil) != (err != nil) {
			t.Fatalf("trace.Read: trace %v with error %v", tr != nil, err)
		}
		if err != nil {
			return
		}
		p, err := paramedir.Analyze(tr)
		if (p == nil) != (err != nil) {
			t.Fatalf("Analyze: profile %v with error %v", p != nil, err)
		}
		// The other consumers are lenient: drive them on rejected
		// traces too, with an empty profile.
		view := p
		if view == nil {
			view = &paramedir.Profile{App: tr.App}
		}
		paramedir.ClassifyPatterns(view, tr)
		paramedir.AnalyzeHotRanges(view, tr)
		rep := &advisor.Report{App: tr.App}
		for _, o := range view.Objects {
			rep.Entries = append(rep.Entries, advisor.Entry{Tier: "MCDRAM", ID: o.ID, Site: o.Site, Size: o.MaxSize, Misses: o.Misses, Static: o.Static})
		}
		if pred, err := predict.Replay(tr, rep, mem.DefaultKNL()); (pred == nil) != (err != nil) {
			t.Fatalf("predict.Replay: prediction %v with error %v", pred != nil, err)
		}
		if p == nil {
			return
		}
		offsets := paramedir.CollectOffsets(tr)
		var collected int64
		for _, o := range p.Objects {
			if n := int64(len(offsets[o.ID])); n != o.Misses {
				t.Fatalf("object %q: Analyze counts %d misses, hot-range walk %d samples", o.ID, o.Misses, n)
			}
			collected += o.Misses
		}
		if want := p.TotalSamples - p.Unattributed; collected != want {
			t.Fatalf("attributed samples: objects sum to %d, profile says %d", collected, want)
		}
	})
}

// FuzzReadCSV is the differential round-trip fuzzer of the Paramedir
// CSV codec, the profile format advisord accepts from clients. ReadCSV
// must never panic and must pair every rejection with an error and no
// profile. Two profiles are then round-tripped: the one ReadCSV
// accepted, and one built from the input's NUL-separated pieces (app
// name, then ID/site pairs), so arbitrary strings reach WriteCSV too.
// For each, WriteCSV may refuse; whatever it writes must read back as
// the same profile and write again byte for byte. The seed corpus
// (testdata/fuzz/FuzzReadCSV) holds the Table I apps' profiles as
// WriteCSV emits them, a CRLF copy, and hand-written edge cases.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := paramedir.ReadCSV(bytes.NewReader(data))
		if (p == nil) != (err != nil) {
			t.Fatalf("ReadCSV: profile %v with error %v", p != nil, err)
		}
		if p != nil {
			csvRoundTrip(t, p)
		}
		csvRoundTrip(t, profileFromPieces(data))
	})
}

// profileFromPieces builds a profile whose strings are the
// NUL-separated pieces of data: the app name, then ID/site pairs.
func profileFromPieces(data []byte) *paramedir.Profile {
	pieces := bytes.Split(data, []byte{0})
	p := &paramedir.Profile{App: string(pieces[0]), SamplePeriod: uint64(len(data)), TotalSamples: int64(len(pieces))}
	for i := 1; i < len(pieces); i += 2 {
		o := paramedir.ObjectStat{ID: string(pieces[i]), Misses: int64(i), MaxSize: int64(len(pieces[i]))}
		if i+1 < len(pieces) {
			o.Site = callstack.Key(pieces[i+1])
		}
		p.Objects = append(p.Objects, o)
	}
	return p
}

// csvRoundTrip checks Read(Write(p)) == p and that writing the result
// again reproduces Write(p) byte for byte, unless WriteCSV refuses p.
func csvRoundTrip(t *testing.T, p *paramedir.Profile) {
	t.Helper()
	var first bytes.Buffer
	if err := p.WriteCSV(&first); err != nil {
		return
	}
	again, err := paramedir.ReadCSV(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("re-read of\n%q\nfailed: %v", first.Bytes(), err)
	}
	if !reflect.DeepEqual(again, p) {
		t.Fatalf("round trip of\n%q\nchanged the profile:\n got %+v\nwant %+v", first.Bytes(), again, p)
	}
	var second bytes.Buffer
	if err := again.WriteCSV(&second); err != nil {
		t.Fatalf("re-write failed: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-write differs:\n got %q\nwant %q", second.Bytes(), first.Bytes())
	}
}
