package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, in nanoseconds since the
// tracer started. Parent 0 marks a root span (one workload pass).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int    `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced passes run the same code.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span under parent (0 = root) for request req (0 =
// none) and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, End: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerTime is the summed self time and call count of one span name.
type layerTime struct {
	calls int
	self  int64 // nanoseconds
}

// byName sums each span name's self time. Call it once the run ends.
func (t *tracer) byName() map[string]layerTime {
	self := selfTimes(t.spans)
	out := map[string]layerTime{}
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.calls++
		lt.self += self[i]
		out[s.Name] = lt
	}
	return out
}

// unattributed is the share of the time of root spans named root that
// no child span covers: benchmark code between layer calls, or work
// no span wraps.
func (t *tracer) unattributed(root string) float64 {
	self := selfTimes(t.spans)
	var rootSelf, rootAll int64
	for i, s := range t.spans {
		if s.Parent == 0 && s.Name == root {
			rootSelf += self[i]
			rootAll += s.End - s.Start
		}
	}
	if rootAll == 0 {
		return 0
	}
	return float64(rootSelf) / float64(rootAll)
}

// selfTimes returns, for every span, its duration minus the part of
// it that its children cover. Children may overlap one another (the
// concurrent clients of one advisord pass); covered time counts once.
func selfTimes(spans []span) []int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of intervals iv clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeFile writes the manifest and then every span as JSON lines.
func (t *tracer) writeFile(path string, man manifest) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	_ = enc.Encode(map[string]any{"manifest": man})
	for _, s := range t.spans {
		_ = enc.Encode(s)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
