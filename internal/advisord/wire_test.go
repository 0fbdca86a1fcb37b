package advisord

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// frameHeader is a length prefix declaring n body bytes.
func frameHeader(n uint32) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], n)
	return hdr[:]
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

// TestReadFrameAllocatesByInput pins that a length prefix alone cannot
// make ReadFrame allocate: a MaxFrame header followed by 10 bytes costs
// what 10 bytes cost.
func TestReadFrameAllocatesByInput(t *testing.T) {
	in := append(frameHeader(MaxFrame), `{"op":"pi`...)
	var err error
	got := bytesPerCall(20, func() {
		var req Request
		err = ReadFrame(bytes.NewReader(in), &req)
	})
	if want := "advisord: read frame body: unexpected EOF"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if got >= 1<<20 {
		t.Fatalf("ReadFrame of a truncated MaxFrame frame allocates %d bytes per call, want < 1 MiB", got)
	}
}

// TestReadFrameTruncation pins io.ReadFull's split of a cut-off body,
// wherever the cut falls relative to the growth chunks.
func TestReadFrameTruncation(t *testing.T) {
	const declared = 3*frameChunk + 100
	for _, sent := range []int{0, 1, frameChunk - 1, frameChunk, frameChunk + 1, 2 * frameChunk, declared - 1} {
		in := append(frameHeader(declared), make([]byte, sent)...)
		var req Request
		err := ReadFrame(bytes.NewReader(in), &req)
		want := "advisord: read frame body: unexpected EOF"
		if sent == 0 {
			want = "advisord: read frame body: EOF"
		}
		if err == nil || err.Error() != want {
			t.Errorf("%d of %d bytes: err = %v, want %q", sent, declared, err, want)
		}
	}
	boom := errors.New("boom")
	in := io.MultiReader(bytes.NewReader(frameHeader(declared)), strings.NewReader("{"), iotest.ErrReader(boom))
	var req Request
	if err := ReadFrame(in, &req); !errors.Is(err, boom) || err.Error() != "advisord: read frame body: boom" {
		t.Errorf("reader error: err = %v, want %q wrapped", err, boom)
	}
}

// TestFrameRoundTripAcrossChunks sends bodies around and past the
// growth chunk, whole and one byte per Read.
func TestFrameRoundTripAcrossChunks(t *testing.T) {
	for _, n := range []int{0, 1, frameChunk - 20, frameChunk, 5*frameChunk + 7} {
		want := Request{Op: OpUploadProfile, ProfileCSV: bytes.Repeat([]byte{'x'}, n)}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &want); err != nil {
			t.Fatal(err)
		}
		for _, r := range []io.Reader{bytes.NewReader(buf.Bytes()), iotest.OneByteReader(bytes.NewReader(buf.Bytes()))} {
			var got Request
			if err := ReadFrame(r, &got); err != nil {
				t.Fatalf("%d-byte CSV: %v", n, err)
			}
			if got.Op != want.Op || !bytes.Equal(got.ProfileCSV, want.ProfileCSV) {
				t.Fatalf("%d-byte CSV: round trip mismatch", n)
			}
		}
	}
}
