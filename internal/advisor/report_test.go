package advisor

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

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

// TestReadReportAllocatesByInput pins that decoding a report costs in
// proportion to its bytes, not to the 16 MiB line limit.
func TestReadReportAllocatesByInput(t *testing.T) {
	in, err := os.ReadFile(filepath.Join("..", "..", "testdata", "seed_reports", "maxw-dgtd_density.report"))
	if err != nil {
		t.Fatal(err)
	}
	got := bytesPerCall(50, func() {
		if _, err := ReadReport(bytes.NewReader(in)); err != nil {
			t.Fatal(err)
		}
	})
	if got >= 64<<10 {
		t.Fatalf("ReadReport of a %d-byte report allocates %d bytes per call, want < 64 KiB", len(in), got)
	}
}

// TestReadReportLineLimits pins the largest line: one longer than the
// scanner's starting buffer is accepted, one over 16 MiB is refused.
func TestReadReportLineLimits(t *testing.T) {
	site := strings.Repeat("s", 2<<20)
	rep, err := ReadReport(strings.NewReader("HMEM_ADVISOR\tx\nobject\tMCDRAM\tfalse\t1\t4096\tid\t" + site + "\n"))
	if err != nil {
		t.Fatalf("2 MiB line: %v", err)
	}
	if len(rep.Entries) != 1 || string(rep.Entries[0].Site) != site {
		t.Fatalf("2 MiB line: site not decoded")
	}
	rep, err = ReadReport(strings.NewReader("HMEM_ADVISOR\tx\nstrategy\t" + strings.Repeat("s", 1<<24) + "\n"))
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line over 16 MiB: err = %v, want bufio.ErrTooLong", err)
	}
	if rep != nil {
		t.Fatalf("line over 16 MiB: got a partial report %+v alongside the error", rep)
	}
}

// TestReadReportScannerErrors pins the scanner's errors: a first line over
// the 16 MiB limit is reported as too long, not as an empty report, and
// a read error after some valid lines yields no report at all.
func TestReadReportScannerErrors(t *testing.T) {
	rep, err := ReadReport(strings.NewReader("HMEM_ADVISOR\t" + strings.Repeat("x", 1<<24) + "\n"))
	if !errors.Is(err, bufio.ErrTooLong) || rep != nil {
		t.Fatalf("first line over 16 MiB: report %v, err = %v, want nil and bufio.ErrTooLong", rep, err)
	}
	broken := errors.New("disk gone")
	in := io.MultiReader(strings.NewReader("HMEM_ADVISOR\tx\nstrategy\tgreedy\nbudget\t4096\n"), iotest.ErrReader(broken))
	rep, err = ReadReport(in)
	if !errors.Is(err, broken) || rep != nil {
		t.Fatalf("read error after two lines: report %v, err = %v, want nil and %v", rep, err, broken)
	}
}

// FuzzReadReport checks that ReadReport never panics and that every
// report it accepts survives Write and a second ReadReport unchanged.
// The checked-in corpus holds testdata/*_reports, a degraded report
// with a partition entry, and a partition of size 0 that Write would
// drop, so the decoder must reject it.
func FuzzReadReport(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		rep, err := ReadReport(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := rep.Write(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := ReadReport(&buf)
		if err != nil {
			t.Fatalf("re-read of\n%s\nfailed: %v", buf.Bytes(), err)
		}
		if !reportsEqual(rep, again) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", again, rep)
		}
	})
}

// reportsEqual is reflect.DeepEqual with a NaN ratio bound equal to
// itself: the codec carries NaN through, DeepEqual does not see it.
func reportsEqual(a, b *Report) bool {
	if a.Degraded != nil && b.Degraded != nil &&
		math.IsNaN(a.Degraded.RatioBound) && math.IsNaN(b.Degraded.RatioBound) {
		da, db := *a.Degraded, *b.Degraded
		da.RatioBound, db.RatioBound = 0, 0
		ca, cb := *a, *b
		ca.Degraded, cb.Degraded = &da, &db
		return reflect.DeepEqual(&ca, &cb)
	}
	return reflect.DeepEqual(a, b)
}
