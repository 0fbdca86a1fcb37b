package paramedir_test

import (
	"bytes"
	"testing"

	"repro/internal/advisor"
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
