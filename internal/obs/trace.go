// Phase-scoped tracing spans. A span is a start/stop wall-clock timer with
// a name ("report", "exhibit") and optional labels (id=fig7);
// ending a span appends one JSON line to the configured trace writer. Span
// emission is entirely off — no clock read, no allocation — until a writer
// is installed with SetTraceWriter (the -trace-out flag on the CLIs), so
// tracing can stay compiled into the modeling hot paths.

package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

var (
	traceMu sync.Mutex
	traceW  io.Writer
	tracing atomic.Bool
)

// SetTraceWriter installs w as the JSONL span sink and enables span
// emission; nil removes the sink and disables spans. Lines are written
// whole under a mutex, so concurrent spans never interleave bytes.
func SetTraceWriter(w io.Writer) {
	traceMu.Lock()
	traceW = w
	traceMu.Unlock()
	tracing.Store(w != nil)
}

// Tracing reports whether a span sink is installed.
func Tracing() bool { return tracing.Load() }

// Span is one in-flight timed phase. The zero Span is inert: End does
// nothing, which is what StartSpan hands out while tracing is disabled.
type Span struct {
	name   string
	labels []Label
	start  time.Time
	live   bool
}

// StartSpan opens a span. While tracing is disabled (no writer
// installed) it returns an inert span without reading the clock.
func StartSpan(name string, labels ...Label) Span {
	if !tracing.Load() {
		return Span{}
	}
	return Span{name: name, labels: labels, start: time.Now(), live: true}
}

// spanRecord is the JSONL schema of one completed span. Times are Unix
// nanoseconds; labels render as a sorted-key object (encoding/json sorts
// map keys), so records with equal content are byte-identical.
type spanRecord struct {
	Span    string            `json:"span"`
	StartNs int64             `json:"start_ns"`
	DurNs   int64             `json:"dur_ns"`
	Labels  map[string]string `json:"labels,omitempty"`
}

// End closes the span and appends its record to the trace writer. Calling
// End on an inert span is a no-op; encoding errors are swallowed (tracing
// must never fail the traced work).
func (s Span) End() {
	if !s.live {
		return
	}
	rec := spanRecord{
		Span:    s.name,
		StartNs: s.start.UnixNano(),
		DurNs:   time.Since(s.start).Nanoseconds(),
	}
	if len(s.labels) > 0 {
		rec.Labels = make(map[string]string, len(s.labels))
		for _, l := range s.labels {
			rec.Labels[l.Key] = l.Value
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	line = append(line, '\n')
	traceMu.Lock()
	if traceW != nil {
		_, _ = traceW.Write(line)
	}
	traceMu.Unlock()
}
