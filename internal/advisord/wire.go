package advisord

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/stage"
)

// The wire protocol is length-prefixed JSON: each frame is a 4-byte
// big-endian payload length followed by that many bytes of one JSON
// document. Conversations are strict request/response — the client
// writes a Request frame, the server answers with exactly one Response
// frame — so a dropped connection can never desynchronize a stream,
// and any net.Conn (TCP, unix socket, net.Pipe in tests) carries it.

// MaxFrame bounds a frame payload. Profiles and reports for the
// shipped workloads are a few KB to a few MB; anything larger is a
// corrupt length prefix, and failing fast beats letting a garbage
// prefix drive a multi-GB allocation.
const MaxFrame = 64 << 20

// Ops of the protocol.
const (
	OpUploadProfile = "upload-profile" // client supplies a Paramedir CSV
	OpSamples       = "samples"        // client streams PEBS-style sample batches
	OpAdvise        = "advise"         // produce a placement report
	OpStats         = "stats"          // server + cache counters
)

// Sample is one aggregated PEBS-style record of a client-side sample
// batch: the misses a client attributed to one object since its last
// batch. Batches are cumulative on the server — the session sums
// misses per object, takes the max size, and on advise reduces the
// aggregate exactly the way paramedir orders its profiles, so a
// sampled-up profile is indistinguishable from an uploaded one.
type Sample struct {
	Object string `json:"object"`           // object ID (call-stack key or "static:<name>")
	Site   string `json:"site,omitempty"`   // allocation call stack, if known
	Static bool   `json:"static,omitempty"` // object the interposer cannot move
	Size   int64  `json:"size,omitempty"`   // largest request seen in this batch
	Misses int64  `json:"misses"`           // PEBS samples attributed in this batch
	Allocs int64  `json:"allocs,omitempty"` // allocations observed in this batch
}

// Request is one client frame. Which fields matter depends on Op; the
// rest stay zero and are omitted from the encoding.
type Request struct {
	Op string `json:"op"`

	// Profiling provenance (OpAdvise when the session has no profile
	// yet): the named workload and run parameters.
	// Machine is a registered machine name ("" = the workload's
	// canonical per-rank machine).
	Workload     string  `json:"workload,omitempty"`
	Machine      string  `json:"machine,omitempty"`
	Cores        int     `json:"cores,omitempty"`
	Seed         uint64  `json:"seed,omitempty"`
	SamplePeriod uint64  `json:"sample_period,omitempty"`
	MinAllocSize int64   `json:"min_alloc_size,omitempty"`
	RefScale     float64 `json:"ref_scale,omitempty"`

	// OpUploadProfile: a profile in Paramedir CSV form.
	ProfileCSV []byte `json:"profile_csv,omitempty"`

	// OpSamples: the application name and one batch of samples, plus
	// samples that fell outside every known object.
	App          string   `json:"app,omitempty"`
	Samples      []Sample `json:"samples,omitempty"`
	Unattributed int64    `json:"unattributed,omitempty"`

	// OpAdvise: fast-memory budget and strategy name (the grammar of
	// advisor.StrategyByName; "" = misses at 0%, the paper default).
	Budget   int64  `json:"budget,omitempty"`
	Strategy string `json:"strategy,omitempty"`
}

// Cache attribution values carried in Response.Cache, coldest first.
const (
	CacheMiss    = "miss"     // computed fresh this request
	CacheHitDisk = "hit-disk" // served from the on-disk artifact cache
	CacheHitMem  = "hit-mem"  // served from the in-memory memo
)

// Response is one server frame.
type Response struct {
	Op  string `json:"op"`
	Err string `json:"err,omitempty"`

	// Fingerprint is the content-addressed key of the artifact served
	// (the advise key for OpAdvise, the profile's content fingerprint
	// for OpUploadProfile).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Cache attributes where the artifact came from: miss, hit-disk or
	// hit-mem. A request touching several artifacts reports the coldest.
	Cache string `json:"cache,omitempty"`

	// OpSamples: aggregated sample total for the session.
	Samples int64 `json:"samples,omitempty"`
	// OpAdvise: the report exactly as PlacementReport.Write renders it
	// — byte-identical to the in-process advisor.
	Report []byte `json:"report,omitempty"`
	// OpStats.
	Stats *ServerStats `json:"stats,omitempty"`
}

// ServerStats snapshots the daemon's lifetime counters.
type ServerStats struct {
	Conns    int64            `json:"conns"`
	Requests int64            `json:"requests"`
	Profiles int64            `json:"profiles_computed"`
	Advises  int64            `json:"advises_computed"`
	Workers  int              `json:"workers"`
	Cache    stage.CacheStats `json:"cache"`
}

// coldness ranks cache attributions; lower is colder.
func coldness(src string) int {
	switch src {
	case CacheMiss:
		return 0
	case CacheHitDisk:
		return 1
	case CacheHitMem:
		return 2
	}
	return 0
}

// colder returns the colder of two attributions — the one a request
// touching both artifacts must report.
func colder(a, b string) string {
	if coldness(a) <= coldness(b) {
		return a
	}
	return b
}

// WriteFrame encodes v as JSON and writes one length-prefixed frame.
func WriteFrame(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("advisord: encode frame: %w", err)
	}
	if len(b) > MaxFrame {
		return fmt.Errorf("advisord: frame too large (%d bytes)", len(b))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// frameChunk is the most readBody allocates before any of a frame's
// body has arrived.
const frameChunk = 64 << 10

// readBody reads exactly n bytes, growing its buffer as they arrive:
// it starts at min(n, frameChunk) and at most doubles per chunk, so a
// length prefix alone cannot make it allocate more than frameChunk.
// Errors are io.ReadFull's: io.EOF if no byte arrived,
// io.ErrUnexpectedEOF if some did.
func readBody(r io.Reader, n int) ([]byte, error) {
	b := make([]byte, 0, min(n, frameChunk))
	for len(b) < n {
		k := min(n-len(b), max(len(b), frameChunk))
		b = slices.Grow(b, k)
		m, err := io.ReadFull(r, b[len(b):len(b)+k])
		b = b[:len(b)+m]
		if err != nil {
			if err == io.EOF && len(b) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return b, nil
}

// ReadFrame reads one length-prefixed frame and decodes it into v.
// io.EOF before the length prefix means the peer closed cleanly
// between frames; anywhere else it is an unexpected disconnect.
func ReadFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("advisord: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return fmt.Errorf("advisord: frame length %d exceeds limit", n)
	}
	b, err := readBody(r, int(n))
	if err != nil {
		return fmt.Errorf("advisord: read frame body: %w", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("advisord: decode frame: %w", err)
	}
	return nil
}
