// Package trace implements the Extrae/Paraver stand-in: a timestamped
// event trace of memory allocations, deallocations, sampled LLC misses
// and phase (routine) boundaries, with a line-oriented text codec so
// the pipeline stages can be run as separate programs exchanging
// files, exactly as Extrae → Paramedir do in the paper, and the one
// replay (Walk) that attributes samples to the live objects.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/callstack"
	"repro/internal/units"
)

// EventType discriminates trace records.
type EventType uint8

// The event kinds Extrae emits that the framework consumes.
const (
	EvAlloc      EventType = iota // dynamic allocation (addr, size, site)
	EvFree                        // deallocation (addr)
	EvRealloc                     // reallocation (addr=new, Aux=old, size, site)
	EvSample                      // PEBS LLC-miss sample (addr, routine, counter)
	EvPhaseBegin                  // routine/phase entry
	EvPhaseEnd                    // routine/phase exit
	EvStatic                      // static object registration (name, addr, size)
)

var evNames = map[EventType]string{
	EvAlloc: "ALLOC", EvFree: "FREE", EvRealloc: "REALLOC",
	EvSample: "SAMPLE", EvPhaseBegin: "PHASEB", EvPhaseEnd: "PHASEE",
	EvStatic: "STATIC",
}

var evByName = func() map[string]EventType {
	m := make(map[string]EventType, len(evNames))
	for k, v := range evNames {
		m[v] = k
	}
	return m
}()

// String implements fmt.Stringer.
func (e EventType) String() string {
	if n, ok := evNames[e]; ok {
		return n
	}
	return fmt.Sprintf("event(%d)", uint8(e))
}

// Record is one trace event. Field meaning depends on Type; unused
// fields are zero.
type Record struct {
	Time    units.Cycles
	Type    EventType
	Addr    uint64
	Aux     uint64 // REALLOC: old address
	Size    int64
	Site    callstack.Key // ALLOC/REALLOC: translated allocation stack
	Routine string        // SAMPLE/PHASE*: routine name; STATIC: object name
	Counter int64         // SAMPLE: instructions retired since last sample
}

// Trace is a full instrumented-run recording.
type Trace struct {
	App     string
	Meta    map[string]string
	Records []Record
}

// New returns an empty trace for app.
func New(app string) *Trace {
	return &Trace{App: app, Meta: make(map[string]string)}
}

// Append adds a record.
func (t *Trace) Append(r Record) { t.Records = append(t.Records, r) }

// CountType returns the number of records of the given type. No
// production caller: the consumers replay the records once through
// Walk; the trace and engine tests count records through it.
func (t *Trace) CountType(ty EventType) int {
	n := 0
	for _, r := range t.Records {
		if r.Type == ty {
			n++
		}
	}
	return n
}

// Period returns the PEBS sampling period the trace was recorded
// with (its "period" metadata), or 0 when that is absent or malformed.
func (t *Trace) Period() uint64 {
	v, err := strconv.ParseUint(t.Meta["period"], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// ObjectID is the identity of the object an ALLOC, REALLOC or STATIC
// record creates: the allocation call-stack key for dynamic objects,
// "static:<name>" for static ones.
func (r *Record) ObjectID() string {
	if r.Type == EvStatic {
		return "static:" + r.Routine
	}
	return string(r.Site)
}

// Region is one live address range of a replayed trace.
type Region struct {
	Start, End uint64
	ID         string       // see Record.ObjectID
	Born       units.Cycles // time of the record that created it
	Size       int64
}

// Walk replays the records in order and is the one place samples are
// attributed to objects. It keeps the live regions sorted by start:
// ALLOC, REALLOC and STATIC insert one, REALLOC after removing the
// region starting at Aux (with Aux 0 and no such region it is a plain
// allocation), and FREE removes the region starting at Addr. Frees and
// reallocs of unknown addresses change nothing; Walk rejects no
// record. visit sees every record with the region involved — the one a
// SAMPLE falls in, or the one a REALLOC or FREE ended — and ok false
// (and a zero Region) when there is none. Walk stops at the first
// error visit returns; otherwise it returns the regions still live,
// sorted by start.
func (t *Trace) Walk(visit func(i int, rec *Record, reg Region, ok bool) error) ([]Region, error) {
	var live []Region
	// at is the index of the first live region starting at or above addr.
	at := func(addr uint64) int {
		return sort.Search(len(live), func(i int) bool { return live[i].Start >= addr })
	}
	for i := range t.Records {
		rec := &t.Records[i]
		var reg Region
		var ok bool
		switch rec.Type {
		case EvRealloc, EvFree:
			addr := rec.Addr
			if rec.Type == EvRealloc {
				addr = rec.Aux
			}
			if j := at(addr); j < len(live) && live[j].Start == addr {
				reg, ok = live[j], true
				live = append(live[:j], live[j+1:]...)
			}
		case EvSample:
			// Only the last region starting at or below Addr can hold it.
			j := sort.Search(len(live), func(i int) bool { return live[i].Start > rec.Addr })
			if j > 0 && rec.Addr < live[j-1].End {
				reg, ok = live[j-1], true
			}
		}
		switch rec.Type {
		case EvAlloc, EvRealloc, EvStatic:
			j := at(rec.Addr)
			live = append(live, Region{})
			copy(live[j+1:], live[j:])
			live[j] = Region{Start: rec.Addr, End: rec.Addr + uint64(rec.Size), ID: rec.ObjectID(), Born: rec.Time, Size: rec.Size}
		}
		if err := visit(i, rec, reg, ok); err != nil {
			return nil, err
		}
	}
	return live, nil
}

// SortByTime orders records by timestamp (stable so simultaneous
// events keep emission order).
func (t *Trace) SortByTime() {
	sort.SliceStable(t.Records, func(i, j int) bool { return t.Records[i].Time < t.Records[j].Time })
}

// esc makes free-form strings safe for the tab-separated, line-based
// format. A carriage return is escaped too: Read's line scanner drops
// one that ends a line.
func esc(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	s = strings.ReplaceAll(s, "\t", "\\t")
	s = strings.ReplaceAll(s, "\n", "\\n")
	s = strings.ReplaceAll(s, "\r", "\\r")
	return s
}

func unesc(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 't':
				b.WriteByte('\t')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case '\\':
				b.WriteByte('\\')
			default:
				b.WriteByte(s[i+1])
			}
			i++
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// Write encodes the trace. Format:
//
//	#PRV2 <app>
//	#META <key> <value>          (escaped)
//	<time> <TYPE> <addr> <aux> <size> <counter> <site> <routine>
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "#PRV2\t%s\n", esc(t.App)); err != nil {
		return err
	}
	keys := make([]string, 0, len(t.Meta))
	for k := range t.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(bw, "#META\t%s\t%s\n", esc(k), esc(t.Meta[k])); err != nil {
			return err
		}
	}
	for _, r := range t.Records {
		if _, err := fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\t%d\t%s\t%s\n",
			r.Time, r.Type, r.Addr, r.Aux, r.Size, r.Counter, esc(string(r.Site)), esc(r.Routine)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read decodes a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("trace: line 1: %w", err)
		}
		return nil, fmt.Errorf("trace: empty input")
	}
	head := strings.SplitN(sc.Text(), "\t", 2)
	if len(head) != 2 || head[0] != "#PRV2" {
		return nil, fmt.Errorf("trace: bad header %q", sc.Text())
	}
	t := New(unesc(head[1]))
	line := 1
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#META\t") {
			parts := strings.SplitN(text, "\t", 3)
			if len(parts) != 3 {
				return nil, fmt.Errorf("trace: line %d: bad meta", line)
			}
			t.Meta[unesc(parts[1])] = unesc(parts[2])
			continue
		}
		f := strings.Split(text, "\t")
		if len(f) != 8 {
			return nil, fmt.Errorf("trace: line %d: %d fields, want 8", line, len(f))
		}
		ts, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad time: %v", line, err)
		}
		ty, ok := evByName[f[1]]
		if !ok {
			return nil, fmt.Errorf("trace: line %d: unknown event %q", line, f[1])
		}
		addr, err := strconv.ParseUint(f[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad addr: %v", line, err)
		}
		aux, err := strconv.ParseUint(f[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad aux: %v", line, err)
		}
		size, err := strconv.ParseInt(f[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad size: %v", line, err)
		}
		ctr, err := strconv.ParseInt(f[5], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad counter: %v", line, err)
		}
		t.Append(Record{
			Time: units.Cycles(ts), Type: ty, Addr: addr, Aux: aux, Size: size,
			Counter: ctr, Site: callstack.Key(unesc(f[6])), Routine: unesc(f[7]),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", line+1, err)
	}
	return t, nil
}
