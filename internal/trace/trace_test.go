package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"repro/internal/callstack"
	"repro/internal/units"
)

func sampleTrace() *Trace {
	t := New("hpcg")
	t.Meta["period"] = "37589"
	t.Meta["weird\tkey"] = "line\nbreak"
	t.Append(Record{Time: 10, Type: EvPhaseBegin, Routine: "main"})
	t.Append(Record{Time: 20, Type: EvAlloc, Addr: 0x1000, Size: 4096, Site: callstack.Key("a.out!main+0x10;libc!malloc+0x0")})
	t.Append(Record{Time: 30, Type: EvSample, Addr: 0x1040, Routine: "spmv", Counter: 1234})
	t.Append(Record{Time: 40, Type: EvRealloc, Addr: 0x2000, Aux: 0x1000, Size: 8192, Site: callstack.Key("k")})
	t.Append(Record{Time: 50, Type: EvFree, Addr: 0x2000})
	t.Append(Record{Time: 60, Type: EvStatic, Addr: 0x9000, Size: 100, Routine: "grid"})
	t.Append(Record{Time: 70, Type: EvPhaseEnd, Routine: "main"})
	return t
}

func TestRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != orig.App {
		t.Fatalf("app = %q, want %q", got.App, orig.App)
	}
	if !reflect.DeepEqual(got.Meta, orig.Meta) {
		t.Fatalf("meta = %v, want %v", got.Meta, orig.Meta)
	}
	if !reflect.DeepEqual(got.Records, orig.Records) {
		t.Fatalf("records differ:\n got %+v\nwant %+v", got.Records, orig.Records)
	}
}

func TestRoundTripPropertyRandomRecords(t *testing.T) {
	f := func(time int64, addr, aux uint64, size, ctr int64, site, routine string) bool {
		tr := New("q")
		tr.Append(Record{
			Time: units.Cycles(time), Type: EvAlloc, Addr: addr, Aux: aux,
			Size: size, Counter: ctr, Site: callstack.Key(site), Routine: routine,
		})
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Records, tr.Records)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "hello\n",
		"short fields": "#PRV2\tx\n1\tALLOC\t2\n",
		"bad time":     "#PRV2\tx\nzz\tALLOC\t0\t0\t0\t0\ts\tr\n",
		"bad type":     "#PRV2\tx\n1\tBOGUS\t0\t0\t0\t0\ts\tr\n",
		"bad addr":     "#PRV2\tx\n1\tALLOC\tqq\t0\t0\t0\ts\tr\n",
		"bad aux":      "#PRV2\tx\n1\tALLOC\t0\tqq\t0\t0\ts\tr\n",
		"bad size":     "#PRV2\tx\n1\tALLOC\t0\t0\tqq\t0\ts\tr\n",
		"bad counter":  "#PRV2\tx\n1\tALLOC\t0\t0\t0\tqq\ts\tr\n",
		"short meta":   "#PRV2\tx\n#META\tonly\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read succeeded, want error", name)
		}
	}
}

// bytesPerCall is the mean heap allocation of one call of f over n calls.
func bytesPerCall(n int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestReadAllocatesByInput pins that decoding a trace costs in
// proportion to its bytes, not to the 16 MiB line limit.
func TestReadAllocatesByInput(t *testing.T) {
	tr := sampleTrace()
	for i := 0; i < 100; i++ {
		tr.Append(Record{Time: units.Cycles(100 + i), Type: EvSample, Addr: 0x1040 + uint64(64*i), Routine: "spmv", Counter: int64(i)})
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	in := buf.Bytes()
	got := bytesPerCall(50, func() {
		if _, err := Read(bytes.NewReader(in)); err != nil {
			t.Fatal(err)
		}
	})
	if got >= 64<<10 {
		t.Fatalf("Read of a %d-byte trace allocates %d bytes per call, want < 64 KiB", len(in), got)
	}
}

// TestReadLineLimits pins the largest line: one longer than the
// scanner's starting buffer is accepted, one over 16 MiB is refused.
func TestReadLineLimits(t *testing.T) {
	routine := strings.Repeat("r", 2<<20)
	tr, err := Read(strings.NewReader("#PRV2\tx\n1\tSAMPLE\t64\t0\t0\t1\t\t" + routine + "\n"))
	if err != nil {
		t.Fatalf("2 MiB line: %v", err)
	}
	if len(tr.Records) != 1 || tr.Records[0].Routine != routine {
		t.Fatalf("2 MiB line: routine not decoded")
	}
	_, err = Read(strings.NewReader("#PRV2\tx\n#META\tk\t" + strings.Repeat("v", 1<<24) + "\n"))
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line over 16 MiB: err = %v, want bufio.ErrTooLong", err)
	}
}

// TestReadScannerErrors pins the scanner's errors: a first line over the 16 MiB
// limit is reported as too long, not as empty input, and a read error
// after valid lines yields no trace.
func TestReadScannerErrors(t *testing.T) {
	tr, err := Read(strings.NewReader("#PRV2\t" + strings.Repeat("x", 1<<24) + "\n"))
	if !errors.Is(err, bufio.ErrTooLong) || tr != nil {
		t.Fatalf("first line over 16 MiB: trace %v, err = %v, want nil and bufio.ErrTooLong", tr, err)
	}
	broken := errors.New("disk gone")
	in := io.MultiReader(strings.NewReader("#PRV2\tx\n1\tFREE\t16\t0\t0\t0\t\t\n"), iotest.ErrReader(broken))
	tr, err = Read(in)
	if !errors.Is(err, broken) || tr != nil {
		t.Fatalf("read error after two lines: trace %v, err = %v, want nil and %v", tr, err, broken)
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	in := "#PRV2\tx\n\n1\tFREE\t16\t0\t0\t0\t\t\n\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 1 || tr.Records[0].Type != EvFree {
		t.Fatalf("records = %+v", tr.Records)
	}
}

func TestCountType(t *testing.T) {
	tr := sampleTrace()
	if n := tr.CountType(EvSample); n != 1 {
		t.Errorf("samples = %d, want 1", n)
	}
	if n := tr.CountType(EvAlloc); n != 1 {
		t.Errorf("allocs = %d, want 1", n)
	}
}

func TestSortByTimeStable(t *testing.T) {
	tr := New("x")
	tr.Append(Record{Time: 5, Type: EvFree, Addr: 1})
	tr.Append(Record{Time: 3, Type: EvAlloc, Addr: 2})
	tr.Append(Record{Time: 5, Type: EvAlloc, Addr: 3})
	tr.SortByTime()
	if tr.Records[0].Addr != 2 || tr.Records[1].Addr != 1 || tr.Records[2].Addr != 3 {
		t.Fatalf("sort order wrong: %+v", tr.Records)
	}
}

func TestEventTypeString(t *testing.T) {
	if EvAlloc.String() != "ALLOC" || EventType(99).String() != "event(99)" {
		t.Fatal("EventType.String wrong")
	}
}

func TestPeriod(t *testing.T) {
	for meta, want := range map[string]uint64{"37589": 37589, "": 0, "1e3": 0, "-5": 0, "99999999999999999999": 0} {
		tr := New("app")
		if meta != "" {
			tr.Meta["period"] = meta
		}
		if got := tr.Period(); got != want {
			t.Errorf("period %q: Period() = %d, want %d", meta, got, want)
		}
	}
}

// TestWalkAttribution pins the replay rules every consumer of Walk
// shares: which region each record hands its visitor and what stays
// live at the end.
func TestWalkAttribution(t *testing.T) {
	tr := New("app")
	for _, r := range []Record{
		{Time: 1, Type: EvAlloc, Addr: 0x1000, Size: 0x100, Site: "a"},
		{Time: 2, Type: EvStatic, Addr: 0x9000, Size: 0x10, Site: "ignored", Routine: "grid"},
		{Time: 3, Type: EvSample, Addr: 0x10ff},
		{Time: 4, Type: EvSample, Addr: 0x1100}, // one past the end
		{Time: 5, Type: EvRealloc, Addr: 0x2000, Aux: 0x1000, Size: 0x200, Site: "b"},
		{Time: 6, Type: EvRealloc, Addr: 0x4000, Aux: 0, Size: 0x10, Site: "c"},
		{Time: 7, Type: EvRealloc, Addr: 0x5000, Aux: 0x7777, Size: 0x10, Site: "d"},
		{Time: 8, Type: EvFree, Addr: 0x2000},
		{Time: 9, Type: EvFree, Addr: 0x2000},
		{Time: 10, Type: EvSample, Addr: 0x9008},
		{Time: 11, Type: EvPhaseBegin, Routine: "main"},
	} {
		tr.Append(r)
	}
	var got []string
	live, err := tr.Walk(func(i int, rec *Record, reg Region, ok bool) error {
		if ok {
			got = append(got, fmt.Sprintf("%d:%s[%#x,%#x)@%d", i, reg.ID, reg.Start, reg.End, reg.Born))
		} else if reg != (Region{}) {
			t.Errorf("record %d: no region but %+v", i, reg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"2:a[0x1000,0x1100)@1", // sample inside a
		"4:a[0x1000,0x1100)@1", // realloc ends a
		"7:b[0x2000,0x2200)@5", // free ends b; the second free finds nothing
		"9:static:grid[0x9000,0x9010)@2",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("visited regions:\n got %q\nwant %q", got, want)
	}
	var ids []string
	for _, r := range live {
		ids = append(ids, r.ID)
	}
	if want := []string{"c", "d", "static:grid"}; !reflect.DeepEqual(ids, want) {
		t.Errorf("live at end = %q, want %q", ids, want)
	}

	stop := errors.New("stop")
	n := 0
	if _, err := tr.Walk(func(int, *Record, Region, bool) error { n++; return stop }); err != stop || n != 1 {
		t.Errorf("visitor error: err %v after %d visits, want stop after 1", err, n)
	}
}
