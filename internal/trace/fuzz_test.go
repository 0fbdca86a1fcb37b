package trace

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/callstack"
)

// FuzzTraceRoundTrip is the differential round-trip fuzzer of the
// trace codec, the format advisord keeps profiling runs in. Read must
// never panic and must pair every rejection with an error and no
// trace. Two traces are then round-tripped: the one Read accepted, and
// one built from the input's NUL-separated pieces (app name, a
// metadata key and value, a site and a routine), so arbitrary strings
// reach Write too. Whatever Write emits must read back as the same
// trace and write again byte for byte. The seed corpus
// (testdata/fuzz/FuzzTraceRoundTrip) is the FuzzTraceReplay corpus of
// internal/paramedir plus pieces that end in carriage returns.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if (tr == nil) != (err != nil) {
			t.Fatalf("Read: trace %v with error %v", tr != nil, err)
		}
		if tr != nil {
			traceRoundTrip(t, tr)
		}
		traceRoundTrip(t, traceFromPieces(data))
	})
}

// traceFromPieces builds a trace whose strings are the NUL-separated
// pieces of data: app name, metadata key, metadata value, site and
// routine.
func traceFromPieces(data []byte) *Trace {
	var pieces [5]string
	for i, p := range bytes.SplitN(data, []byte{0}, len(pieces)) {
		pieces[i] = string(p)
	}
	tr := New(pieces[0])
	tr.Meta[pieces[1]] = pieces[2]
	tr.Append(Record{Time: 1, Type: EvAlloc, Addr: 0x1000, Size: int64(len(data)), Site: callstack.Key(pieces[3]), Routine: pieces[4]})
	tr.Append(Record{Time: 2, Type: EvSample, Addr: 0x1000, Routine: pieces[4], Counter: -1})
	return tr
}

// traceRoundTrip checks Read(Write(tr)) == tr and that writing the
// result again reproduces Write(tr) byte for byte.
func traceRoundTrip(t *testing.T, tr *Trace) {
	t.Helper()
	var first bytes.Buffer
	if err := tr.Write(&first); err != nil {
		t.Fatal(err)
	}
	again, err := Read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("re-read of\n%q\nfailed: %v", first.Bytes(), err)
	}
	if !reflect.DeepEqual(again, tr) {
		t.Fatalf("round trip of\n%q\nchanged the trace:\n got %+v\nwant %+v", first.Bytes(), again, tr)
	}
	var second bytes.Buffer
	if err := again.Write(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-write differs:\n got %q\nwant %q", second.Bytes(), first.Bytes())
	}
}
