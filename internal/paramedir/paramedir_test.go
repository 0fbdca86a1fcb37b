package paramedir

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/callstack"
	"repro/internal/trace"
)

func mkTrace() *trace.Trace {
	tr := trace.New("app")
	tr.Meta["period"] = "100"
	siteA := callstack.Key("app!allocA+0x1;app!main+0x2")
	siteB := callstack.Key("app!allocB+0x3;app!main+0x2")
	tr.Append(trace.Record{Time: 1, Type: trace.EvAlloc, Addr: 0x1000, Size: 0x1000, Site: siteA})
	tr.Append(trace.Record{Time: 2, Type: trace.EvAlloc, Addr: 0x3000, Size: 0x800, Site: siteB})
	tr.Append(trace.Record{Time: 3, Type: trace.EvStatic, Addr: 0x9000, Size: 0x100, Routine: "grid"})
	// Samples: 3 in A, 1 in B, 1 in static, 1 unattributed.
	tr.Append(trace.Record{Time: 4, Type: trace.EvSample, Addr: 0x1004})
	tr.Append(trace.Record{Time: 5, Type: trace.EvSample, Addr: 0x1fff})
	tr.Append(trace.Record{Time: 6, Type: trace.EvSample, Addr: 0x1800})
	tr.Append(trace.Record{Time: 7, Type: trace.EvSample, Addr: 0x3400})
	tr.Append(trace.Record{Time: 8, Type: trace.EvSample, Addr: 0x9050})
	tr.Append(trace.Record{Time: 9, Type: trace.EvSample, Addr: 0xdead0})
	tr.Append(trace.Record{Time: 10, Type: trace.EvFree, Addr: 0x1000})
	// After the free, samples at A's old range are unattributed.
	tr.Append(trace.Record{Time: 11, Type: trace.EvSample, Addr: 0x1004})
	return tr
}

func TestAnalyzeAttribution(t *testing.T) {
	p, err := Analyze(mkTrace())
	if err != nil {
		t.Fatal(err)
	}
	if p.App != "app" || p.SamplePeriod != 100 {
		t.Fatalf("meta: app=%q period=%d", p.App, p.SamplePeriod)
	}
	if p.TotalSamples != 7 || p.Unattributed != 2 {
		t.Fatalf("samples=%d unattributed=%d, want 7/2", p.TotalSamples, p.Unattributed)
	}
	if len(p.Objects) != 3 {
		t.Fatalf("objects = %d, want 3", len(p.Objects))
	}
	// Sorted by misses descending: A(3), B(1)/static(1).
	if p.Objects[0].Misses != 3 || !strings.Contains(p.Objects[0].ID, "allocA") {
		t.Fatalf("top object = %+v", p.Objects[0])
	}
	var st ObjectStat
	var total int64
	for _, o := range p.Objects {
		if o.ID == "static:grid" {
			st = o
		}
		total += o.Misses
	}
	if !st.Static || st.Misses != 1 {
		t.Fatalf("static stat = %+v", st)
	}
	if total != 5 {
		t.Fatalf("total misses = %d, want 5", total)
	}
}

func TestAnalyzeRepeatedSiteMergesMaxSize(t *testing.T) {
	tr := trace.New("loop")
	site := callstack.Key("app!allocLoop+0x0")
	// Loop: alloc/free with growing sizes, same call stack.
	for i, size := range []int64{100, 500, 300} {
		addr := uint64(0x1000 * (i + 1))
		tr.Append(trace.Record{Time: 1, Type: trace.EvAlloc, Addr: addr, Size: size, Site: site})
		tr.Append(trace.Record{Time: 2, Type: trace.EvFree, Addr: addr})
	}
	p, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Objects) != 1 {
		t.Fatalf("objects = %d, want 1 (same call stack merges)", len(p.Objects))
	}
	o := p.Objects[0]
	if o.MaxSize != 500 || o.AllocCount != 3 {
		t.Fatalf("max=%d count=%d, want 500/3", o.MaxSize, o.AllocCount)
	}
}

func TestAnalyzeRealloc(t *testing.T) {
	tr := trace.New("re")
	site := callstack.Key("app!grow+0x0")
	tr.Append(trace.Record{Time: 1, Type: trace.EvAlloc, Addr: 0x1000, Size: 100, Site: site})
	tr.Append(trace.Record{Time: 2, Type: trace.EvRealloc, Addr: 0x8000, Aux: 0x1000, Size: 900, Site: site})
	tr.Append(trace.Record{Time: 3, Type: trace.EvSample, Addr: 0x8100})
	tr.Append(trace.Record{Time: 4, Type: trace.EvSample, Addr: 0x1000}) // old region gone
	p, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	o := p.Objects[0]
	if o.MaxSize != 900 || o.Misses != 1 || o.AllocCount != 2 {
		t.Fatalf("stat = %+v", o)
	}
	if p.Unattributed != 1 {
		t.Fatalf("unattributed = %d, want 1", p.Unattributed)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(nil); err == nil {
		t.Fatal("nil trace accepted")
	}
	bad := trace.New("x")
	bad.Append(trace.Record{Type: trace.EvAlloc, Addr: 1, Size: 0})
	if _, err := Analyze(bad); err == nil {
		t.Fatal("zero-size alloc accepted")
	}
	bad2 := trace.New("x")
	bad2.Append(trace.Record{Type: trace.EvRealloc, Addr: 0x2000, Aux: 0x1000, Size: 5})
	if _, err := Analyze(bad2); err == nil {
		t.Fatal("realloc of unknown region accepted")
	}
	// A negative size wraps the region's end: this static would claim
	// nearly the whole address space, the far sample included.
	wrap := trace.New("x")
	wrap.Append(trace.Record{Type: trace.EvStatic, Addr: 16, Size: -32, Routine: "wrap"})
	wrap.Append(trace.Record{Type: trace.EvSample, Addr: 1 << 62})
	if _, err := Analyze(wrap); err == nil {
		t.Fatal("negative-size static accepted")
	}
	zero := trace.New("x")
	zero.Append(trace.Record{Type: trace.EvAlloc, Addr: 0x1000, Size: 64})
	zero.Append(trace.Record{Type: trace.EvRealloc, Addr: 0x2000, Aux: 0x1000, Size: 0})
	if _, err := Analyze(zero); err == nil {
		t.Fatal("zero-size realloc accepted")
	}
}

func TestAnalyzeFreeOfUninstrumentedIsIgnored(t *testing.T) {
	tr := trace.New("x")
	tr.Append(trace.Record{Type: trace.EvFree, Addr: 0x1234})
	if _, err := Analyze(tr); err != nil {
		t.Fatalf("free of unknown region should be tolerated: %v", err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	p, err := Analyze(mkTrace())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != p.App || got.SamplePeriod != p.SamplePeriod ||
		got.TotalSamples != p.TotalSamples || got.Unattributed != p.Unattributed {
		t.Fatalf("meta mismatch: %+v vs %+v", got, p)
	}
	if !reflect.DeepEqual(got.Objects, p.Objects) {
		t.Fatalf("objects differ:\n got %+v\nwant %+v", got.Objects, p.Objects)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"no header":  "#app=x\n1,2,3\n",
		"bad static": "#app=x\nid,static,misses,max_size,alloc_count,site\na,notabool,1,2,3,s\n",
		"bad misses": "#app=x\nid,static,misses,max_size,alloc_count,site\na,true,zz,2,3,s\n",
		"bad size":   "#app=x\nid,static,misses,max_size,alloc_count,site\na,true,1,zz,3,s\n",
		"bad count":  "#app=x\nid,static,misses,max_size,alloc_count,site\na,true,1,2,zz,s\n",
		// A known metadata key whose value does not parse is an error,
		// not a silent zero.
		"bad period":       "#app=x\n#period=abc\nid,static,misses,max_size,alloc_count,site,intervals\n",
		"negative period":  "#app=x\n#period=-1\nid,static,misses,max_size,alloc_count,site,intervals\n",
		"bad samples":      "#app=x\n#samples=1e3\nid,static,misses,max_size,alloc_count,site,intervals\n",
		"bad unattributed": "#app=x\n#unattributed= 1\nid,static,misses,max_size,alloc_count,site,intervals\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadCSVCRLFPreamble: a profile saved with CRLF line ends reads as
// the LF original, metadata included, as encoding/csv already reads
// the rows.
func TestReadCSVCRLFPreamble(t *testing.T) {
	p, err := Analyze(mkTrace())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(strings.ReplaceAll(buf.String(), "\n", "\r\n")))
	if err != nil {
		t.Fatal(err)
	}
	if got.App != p.App || got.SamplePeriod != p.SamplePeriod ||
		got.TotalSamples != p.TotalSamples || got.Unattributed != p.Unattributed {
		t.Fatalf("CRLF metadata: app %q period %d samples %d unattributed %d, want %q %d %d %d",
			got.App, got.SamplePeriod, got.TotalSamples, got.Unattributed,
			p.App, p.SamplePeriod, p.TotalSamples, p.Unattributed)
	}
	if !reflect.DeepEqual(got.Objects, p.Objects) {
		t.Fatalf("CRLF objects differ:\n got %+v\nwant %+v", got.Objects, p.Objects)
	}
}

// TestWriteCSVRefusesUnreadable: WriteCSV returns an error instead of
// writing a profile ReadCSV would reject or read back differently.
func TestWriteCSVRefusesUnreadable(t *testing.T) {
	for name, p := range map[string]*Profile{
		"app with LF":    {App: "a\nb"},
		"app with CR":    {App: "a\r"},
		"ID with CRLF":   {App: "x", Objects: []ObjectStat{{ID: "x\r\ny"}}},
		"site with CRLF": {App: "x", Objects: []ObjectStat{{ID: "x", Site: "a\r\nb"}}},
	} {
		if err := p.WriteCSV(io.Discard); err == nil {
			t.Errorf("%s: written", name)
		}
	}
}
