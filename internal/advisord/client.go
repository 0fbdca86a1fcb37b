package advisord

import (
	"bytes"
	"fmt"
	"net"
	"sync"

	"repro/internal/advisor"
	"repro/internal/stage"
)

// Client is one advisory conversation. It is safe for concurrent use —
// requests are serialized over the single connection, matching the
// protocol's strict request/response framing — though the intended
// shape is one Client per goroutine.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
}

// Dial connects to a daemon at a TCP address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("advisord: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (TCP, unix socket,
// net.Pipe in tests).
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn}
}

// Close ends the conversation.
func (c *Client) Close() error {
	return c.conn.Close()
}

// Conn exposes the underlying connection (the chaos harness severs it
// mid-conversation to model a vanishing client).
func (c *Client) Conn() net.Conn { return c.conn }

// do performs one request/response round trip, surfacing server-side
// errors as Go errors.
func (c *Client) do(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := WriteFrame(c.conn, req); err != nil {
		return nil, err
	}
	var resp Response
	if err := ReadFrame(c.conn, &resp); err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("%s", resp.Err)
	}
	return &resp, nil
}

// Stats fetches the daemon's counters.
func (c *Client) Stats() (*ServerStats, error) {
	resp, err := c.do(&Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// UploadProfile establishes a client-side profile (Paramedir CSV
// bytes) as this conversation's profile, returning its content
// fingerprint.
func (c *Client) UploadProfile(csv []byte) (string, error) {
	resp, err := c.do(&Request{Op: OpUploadProfile, ProfileCSV: csv})
	if err != nil {
		return "", err
	}
	return resp.Fingerprint, nil
}

// SendSamples streams one PEBS-style sample batch into the
// conversation's aggregate; unattributed counts samples that fell
// outside every known object. It returns the aggregate sample total.
// No production caller: it is the client side of the sample-streaming
// path README documents for library users; the daemon tests drive it.
func (c *Client) SendSamples(app string, batch []Sample, unattributed int64) (int64, error) {
	resp, err := c.do(&Request{
		Op:           OpSamples,
		App:          app,
		Samples:      batch,
		Unattributed: unattributed,
	})
	if err != nil {
		return 0, err
	}
	return resp.Samples, nil
}

// AdviseResult is what an advise round trip yields.
type AdviseResult struct {
	// Fingerprint is the content-addressed report key.
	Fingerprint string
	// Cache attributes the coldest artifact the request touched.
	Cache string
	// ReportBytes is the report exactly as PlacementReport.Write
	// renders it — byte-identical to the in-process advisor.
	ReportBytes []byte
	// Report is the parsed form.
	Report *advisor.Report
}

// Advise requests a placement report for the conversation's
// established profile (strategy "" = the paper-default misses at 0%).
func (c *Client) Advise(budget int64, strategy string) (*AdviseResult, error) {
	return c.adviseReq(&Request{Op: OpAdvise, Budget: budget, Strategy: strategy})
}

// AdviseWorkload is the one-shot form: profile the named workload
// (server-side, through the cache) and advise in a single request.
func (c *Client) AdviseWorkload(workload, machine string, params stage.ProfileParams, budget int64, strategy string) (*AdviseResult, error) {
	return c.adviseReq(&Request{
		Op:           OpAdvise,
		Workload:     workload,
		Machine:      machine,
		Cores:        params.Cores,
		Seed:         params.Seed,
		SamplePeriod: params.SamplePeriod,
		MinAllocSize: params.MinAllocSize,
		RefScale:     params.RefScale,
		Budget:       budget,
		Strategy:     strategy,
	})
}

func (c *Client) adviseReq(req *Request) (*AdviseResult, error) {
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	rep, err := advisor.ReadReport(bytes.NewReader(resp.Report))
	if err != nil {
		return nil, err
	}
	return &AdviseResult{
		Fingerprint: resp.Fingerprint,
		Cache:       resp.Cache,
		ReportBytes: resp.Report,
		Report:      rep,
	}, nil
}
