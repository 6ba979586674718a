package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans of one operation or request share Op; Parent is the id of the span
// that made the call (0 for a root). Times are nanoseconds since the
// tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the measured code paths are
// the same with tracing on and off apart from the recording itself.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh operation id.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

// begin starts a span named name under parent within operation op.
func (t *tracer) begin(name, tag string, op, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, s: span{ID: t.ids.Add(1), Parent: parent, Op: op, Name: name, Tag: tag,
		Start: int64(time.Since(t.t0))}}
}

// id is the span's id, to pass to children (0 when untraced).
func (o openSpan) id() int64 { return o.s.ID }

func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// call runs fn inside a span named name, a child of parent within op.
func (t *tracer) call(name string, op, parent int64, fn func()) {
	sp := t.begin(name, "", op, parent)
	fn()
	sp.end()
}

// snapshot returns the recorded spans sorted by start time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// layerTime is the aggregate of every span of one name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover.
func selfTimes(spans []span) []layerTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*layerTime{}
	var names []string
	for _, s := range spans {
		lt, ok := agg[s.Name]
		if !ok {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
			names = append(names, s.Name)
		}
		lt.Count++
		lt.Total += s.dur()
		lt.Self += s.dur() - covered(s, children[s.ID])
	}
	sort.Strings(names)
	out := make([]layerTime, len(names))
	for i, n := range names {
		out[i] = *agg[n]
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	ivs := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64
	end = -1 << 62
	for _, iv := range ivs {
		lo := max(iv[0], end)
		if iv[1] > lo {
			total += iv[1] - lo
		}
		end = max(end, iv[1])
	}
	return time.Duration(total)
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
