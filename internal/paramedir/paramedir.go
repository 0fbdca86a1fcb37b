// Package paramedir is the trace-reduction stage of the framework (the
// Paramedir batch analyzer of the BSC tool-suite): it replays an
// Extrae-style trace, tracks the live dynamically-allocated regions by
// their allocation call stack, attributes every PEBS sample to the
// object whose address range contains it, and emits per-object
// statistics — sampled LLC misses and the maximum requested size — as
// the CSV that hmem_advisor consumes.
//
// Dynamic objects are identified by their (translated) allocation call
// stack. A loop over an allocation statement produces the same stack
// every iteration, so repeated allocations merge into one object whose
// size is the maximum observed request — the approximation Section III
// ("Step 2: Paramedir") describes, and the reason the advisor can
// overestimate the live footprint of churny applications like Lulesh.
package paramedir

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/callstack"
	"repro/internal/trace"
	"repro/internal/units"
)

// LiveInterval is one period during which an allocation of the site
// was live, with the bytes it held.
type LiveInterval struct {
	Start, End units.Cycles
	Size       int64
}

// ObjectStat aggregates one data object.
type ObjectStat struct {
	// ID is the object identity: the call-stack key for dynamic
	// objects, "static:<name>" for static/stack objects.
	ID string
	// Site is the allocation call stack (empty for statics).
	Site callstack.Key
	// Static marks objects the interposer cannot move.
	Static bool
	// MaxSize is the largest request observed for this site.
	MaxSize int64
	// Misses is the number of PEBS samples attributed to the object.
	Misses int64
	// AllocCount is how many allocations the site performed.
	AllocCount int64
	// Intervals is the site's liveness timeline — the "time-varying
	// representation of the application address space" Section III
	// notes hmem_advisor could exploit (see advisor.AdviseTimeAware).
	Intervals []LiveInterval
}

// Profile is the reduction of one trace.
type Profile struct {
	App          string
	SamplePeriod uint64
	Objects      []ObjectStat // sorted by Misses descending
	TotalSamples int64
	// Unattributed counts samples that fell outside every known
	// object (stack spills of uninstrumented data, allocator metadata).
	Unattributed int64
}

// Analyze replays tr and reduces it to a Profile. It rejects what the
// replay itself tolerates: an ALLOC, REALLOC or STATIC of size ≤ 0
// (a negative size would wrap the region's end over the address
// space) and a REALLOC of an unknown non-zero address.
func Analyze(tr *trace.Trace) (*Profile, error) {
	if tr == nil {
		return nil, fmt.Errorf("paramedir: nil trace")
	}
	p := &Profile{App: tr.App, SamplePeriod: tr.Period()}

	stats := make(map[string]*ObjectStat)
	var lastTime units.Cycles
	closeRegion := func(r trace.Region, at units.Cycles) {
		st := stats[r.ID]
		st.Intervals = append(st.Intervals, LiveInterval{Start: r.Born, End: at, Size: r.Size})
	}
	live, err := tr.Walk(func(idx int, rec *trace.Record, reg trace.Region, ok bool) error {
		if rec.Time > lastTime {
			lastTime = rec.Time
		}
		switch rec.Type {
		case trace.EvAlloc, trace.EvRealloc, trace.EvStatic:
			if rec.Size <= 0 {
				return fmt.Errorf("paramedir: record %d: %s with size %d", idx, strings.ToLower(rec.Type.String()), rec.Size)
			}
			if rec.Type == trace.EvRealloc && !ok && rec.Aux != 0 {
				return fmt.Errorf("paramedir: record %d: realloc of unknown region %#x", idx, rec.Aux)
			}
			if ok {
				closeRegion(reg, rec.Time)
			}
			id := rec.ObjectID()
			st, seen := stats[id]
			if !seen {
				st = &ObjectStat{ID: id, Static: rec.Type == trace.EvStatic}
				if !st.Static {
					st.Site = rec.Site
				}
				stats[id] = st
			}
			st.AllocCount++
			if rec.Size > st.MaxSize {
				st.MaxSize = rec.Size
			}
		case trace.EvFree:
			// Frees of uninstrumented (small) allocations legitimately
			// miss; ignore them as Extrae does.
			if ok {
				closeRegion(reg, rec.Time)
			}
		case trace.EvSample:
			p.TotalSamples++
			if ok {
				stats[reg.ID].Misses++
			} else {
				p.Unattributed++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Close whatever is still live at the end of the trace.
	for _, r := range live {
		closeRegion(r, lastTime)
	}

	p.Objects = make([]ObjectStat, 0, len(stats))
	for _, s := range stats {
		p.Objects = append(p.Objects, *s)
	}
	SortObjects(p.Objects)
	return p, nil
}

// SortObjects puts objs in Paramedir's reduction order: misses
// descending, then ID ascending. Every Profile that is built rather
// than read (Analyze's, the daemon's sample aggregate) is sorted by it,
// so equal content advises identically whatever its source.
func SortObjects(objs []ObjectStat) {
	sort.Slice(objs, func(i, j int) bool {
		if objs[i].Misses != objs[j].Misses {
			return objs[i].Misses > objs[j].Misses
		}
		return objs[i].ID < objs[j].ID
	})
}

// csvHeader is the column layout of the Paramedir CSV. The intervals
// column encodes the liveness timeline as start:end:size triples
// joined by '|'.
var csvHeader = []string{"id", "static", "misses", "max_size", "alloc_count", "site", "intervals"}

func encodeIntervals(ivs []LiveInterval) string {
	var b strings.Builder
	for i, iv := range ivs {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%d:%d:%d", iv.Start, iv.End, iv.Size)
	}
	return b.String()
}

func decodeIntervals(s string) ([]LiveInterval, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, "|")
	out := make([]LiveInterval, 0, len(parts))
	for _, p := range parts {
		var iv LiveInterval
		var st, en int64
		if _, err := fmt.Sscanf(p, "%d:%d:%d", &st, &en, &iv.Size); err != nil {
			return nil, fmt.Errorf("paramedir: bad interval %q: %w", p, err)
		}
		iv.Start, iv.End = units.Cycles(st), units.Cycles(en)
		out = append(out, iv)
	}
	return out, nil
}

// WriteCSV emits the profile in the comma-separated form hmem_advisor
// reads, preceded by #-comment metadata lines. It refuses what ReadCSV
// could not read back: an App with a line break (the metadata lines
// carry no escapes) and an ID or Site holding "\r\n", which
// encoding/csv reads back as "\n".
func (p *Profile) WriteCSV(w io.Writer) error {
	if strings.ContainsAny(p.App, "\r\n") {
		return fmt.Errorf("paramedir: app name %q has a line break", p.App)
	}
	for _, o := range p.Objects {
		if strings.Contains(o.ID, "\r\n") || strings.Contains(string(o.Site), "\r\n") {
			return fmt.Errorf("paramedir: object %q: \\r\\n in a field does not survive CSV", o.ID)
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "#app=%s\n", p.App)
	fmt.Fprintf(bw, "#period=%d\n", p.SamplePeriod)
	fmt.Fprintf(bw, "#samples=%d\n", p.TotalSamples)
	fmt.Fprintf(bw, "#unattributed=%d\n", p.Unattributed)
	cw := csv.NewWriter(bw)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, o := range p.Objects {
		rec := []string{
			o.ID,
			strconv.FormatBool(o.Static),
			strconv.FormatInt(o.Misses, 10),
			strconv.FormatInt(o.MaxSize, 10),
			strconv.FormatInt(o.AllocCount, 10),
			string(o.Site),
			encodeIntervals(o.Intervals),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses a profile written by WriteCSV. Like encoding/csv for
// the rows, it accepts CRLF line ends in the metadata preamble; a
// known metadata key whose value does not parse is an error.
func ReadCSV(r io.Reader) (*Profile, error) {
	br := bufio.NewReader(r)
	p := &Profile{}
	// Comment preamble.
	for {
		peek, err := br.Peek(1)
		if err != nil {
			return nil, fmt.Errorf("paramedir: truncated CSV: %w", err)
		}
		if peek[0] != '#' {
			break
		}
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("paramedir: truncated CSV: %w", err)
		}
		key, val, ok := strings.Cut(strings.TrimSuffix(line[1:len(line)-1], "\r"), "=")
		if !ok {
			continue
		}
		switch key {
		case "app":
			p.App = val
		case "period":
			p.SamplePeriod, err = strconv.ParseUint(val, 10, 64)
		case "samples":
			p.TotalSamples, err = strconv.ParseInt(val, 10, 64)
		case "unattributed":
			p.Unattributed, err = strconv.ParseInt(val, 10, 64)
		}
		if err != nil {
			return nil, fmt.Errorf("paramedir: bad #%s value %q", key, val)
		}
	}
	cr := csv.NewReader(br)
	cr.FieldsPerRecord = len(csvHeader)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("paramedir: bad CSV: %w", err)
	}
	if len(rows) == 0 || rows[0][0] != "id" {
		return nil, fmt.Errorf("paramedir: missing CSV header")
	}
	for _, row := range rows[1:] {
		static, err := strconv.ParseBool(row[1])
		if err != nil {
			return nil, fmt.Errorf("paramedir: bad static flag %q", row[1])
		}
		misses, err := strconv.ParseInt(row[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("paramedir: bad misses %q", row[2])
		}
		size, err := strconv.ParseInt(row[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("paramedir: bad size %q", row[3])
		}
		count, err := strconv.ParseInt(row[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("paramedir: bad count %q", row[4])
		}
		ivs, err := decodeIntervals(row[6])
		if err != nil {
			return nil, err
		}
		p.Objects = append(p.Objects, ObjectStat{
			ID: row[0], Static: static, Misses: misses, MaxSize: size,
			AllocCount: count, Site: callstack.Key(row[5]), Intervals: ivs,
		})
	}
	return p, nil
}
