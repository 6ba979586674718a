// The metrics registry and its Prometheus text exposition. A Registry maps
// metric families (name, help, type) to label-distinguished series; the
// package-level Default registry is the one every in-tree producer
// registers into and the one GET /metrics serves. Output is rendered in
// sorted family and series order with fixed bucket edges, so the scrape
// structure is deterministic — only measured values change between scrapes.

package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// instrument kinds, used to reject re-registration under a new type.
const (
	kindCounter = "counter"
	kindGauge   = "gauge"
	kindHist    = "histogram"
)

// series is one (family, label set) time series and its backing state.
// Exactly one of counter/gauge/hist/fn is set.
type series struct {
	labels  string // pre-rendered `key="value",...` signature, sorted by key
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// family is every series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   string
	series map[string]*series // by label signature
}

// Registry is a set of metric families. The zero value is not usable;
// construct with NewRegistry (or use Default).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Default is the process-wide registry every in-tree instrument registers
// into; the evaluation service exposes it on GET /metrics.
var Default = NewRegistry()

// labelSignature renders labels as a sorted, escaped `k="v",...` string.
// The signature is both the series key and the exposition text.
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// getSeries finds or creates the (name, labels) series inside the family
// of the given kind. It panics on a metric name or label key outside the
// exposition charset, on help text holding a backslash or newline, and on
// a name already registered under a different kind: every registration
// passes program constants, so a malformed or conflicting one is a
// programmer error caught at package init, not a runtime condition. Help
// text is not compared; the family keeps its first registration's.
func (r *Registry) getSeries(name, help, kind string, labels []Label) *series {
	if !validName(name, true) {
		panic(fmt.Sprintf("obs: metric name %q is not [a-zA-Z_:][a-zA-Z0-9_:]*", name))
	}
	if strings.ContainsAny(help, "\\\n") {
		panic(fmt.Sprintf("obs: help text of %s holds a backslash or newline", name))
	}
	for _, l := range labels {
		if !validName(l.Key, false) {
			panic(fmt.Sprintf("obs: label key %q of %s is not [a-zA-Z_][a-zA-Z0-9_]*", l.Key, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	sig := labelSignature(labels)
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: sig}
		f.series[sig] = s
	}
	return s
}

// Counter finds or creates the counter series (name, labels). Repeat calls
// with the same name and labels return the same counter. It panics on a
// malformed name, label key or help text, or a kind conflict with an
// existing family (see getSeries).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.getSeries(name, help, kindCounter, labels)
	if s.counter == nil {
		s.counter = NewCounter()
	}
	return s.counter
}

// Gauge finds or creates the gauge series (name, labels). It panics on a
// malformed or conflicting registration (see getSeries).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.getSeries(name, help, kindGauge, labels)
	if s.gauge == nil {
		s.gauge = NewGauge()
	}
	return s.gauge
}

// Histogram finds or creates the histogram series (name, labels) with the
// given fixed bucket edges. Edges are set on first creation; repeat calls
// return the existing histogram unchanged. It panics on a malformed or
// conflicting registration or invalid edges (see getSeries and
// NewHistogram).
func (r *Registry) Histogram(name, help string, edges []float64, labels ...Label) *Histogram {
	s := r.getSeries(name, help, kindHist, labels)
	if s.hist == nil {
		s.hist = NewHistogram(edges)
	}
	return s.hist
}

// CounterFunc registers a callback-backed counter series, replacing any
// previous series at (name, labels): the value is read at scrape time.
// It panics on a malformed or conflicting registration (see getSeries).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.getSeries(name, help, kindCounter, labels)
	s.fn, s.counter = fn, nil
}

// GaugeFunc registers a callback-backed gauge series, replacing any
// previous series at (name, labels). It panics on a malformed or
// conflicting registration (see getSeries).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.getSeries(name, help, kindGauge, labels)
	s.fn, s.gauge = fn, nil
}

// formatFloat renders a sample value in the shortest round-tripping form.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// valueFunc returns a reader for the series' current sample, bound to the
// backing instrument at snapshot time (call with the registry lock held).
func (s *series) valueFunc() func() float64 {
	switch {
	case s.fn != nil:
		return s.fn
	case s.counter != nil:
		c := s.counter
		return func() float64 { return float64(c.Value()) }
	case s.gauge != nil:
		g := s.gauge
		return func() float64 { return float64(g.Value()) }
	}
	return func() float64 { return 0 }
}

// writeSample emits one exposition line: name{labels} value.
func writeSample(w io.Writer, name, labels, extra string, v float64) error {
	sep := labels
	if labels != "" && extra != "" {
		sep = labels + "," + extra
	} else if extra != "" {
		sep = extra
	}
	if sep != "" {
		_, err := fmt.Fprintf(w, "%s{%s} %s\n", name, sep, formatFloat(v))
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", name, formatFloat(v))
	return err
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4), families sorted by name and series by label
// signature. Histograms emit cumulative _bucket samples, _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Snapshot the whole structure under the lock — family order, series
	// order and instrument references — then render and read values outside
	// it, so a scrape never holds the registry lock while calling a
	// callback (which could otherwise deadlock by touching the registry).
	type seriesSnap struct {
		labels string
		hist   *Histogram
		value  func() float64
	}
	type famSnap struct {
		name, help, kind string
		series           []seriesSnap
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	snaps := make([]famSnap, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		fs := famSnap{name: f.name, help: f.help, kind: f.kind}
		for _, sig := range sigs {
			s := f.series[sig]
			fs.series = append(fs.series, seriesSnap{labels: s.labels, hist: s.hist, value: s.valueFunc()})
		}
		snaps = append(snaps, fs)
	}
	r.mu.Unlock()

	for _, f := range snaps {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			if s.hist != nil {
				if err := writeHistogram(w, f.name, s.labels, s.hist); err != nil {
					return err
				}
				continue
			}
			if err := writeSample(w, f.name, s.labels, "", s.value()); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram emits one histogram series: cumulative buckets by upper
// bound, the +Inf bucket, then _sum and _count.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) error {
	counts := h.BucketCounts()
	var cum int64
	for i, edge := range h.edges {
		cum += counts[i]
		if err := writeSample(w, name+"_bucket", labels,
			`le="`+formatFloat(edge)+`"`, float64(cum)); err != nil {
			return err
		}
	}
	cum += counts[len(counts)-1]
	if err := writeSample(w, name+"_bucket", labels, `le="+Inf"`, float64(cum)); err != nil {
		return err
	}
	if err := writeSample(w, name+"_sum", labels, "", h.Sum()); err != nil {
		return err
	}
	return writeSample(w, name+"_count", labels, "", float64(h.Count()))
}

// WritePrometheus renders the Default registry (see Registry.WritePrometheus).
func WritePrometheus(w io.Writer) error { return Default.WritePrometheus(w) }

// validName reports whether s is a Prometheus metric name,
// [a-zA-Z_:][a-zA-Z0-9_:]*, or, with colon false, a label name,
// [a-zA-Z_][a-zA-Z0-9_]*.
func validName(s string, colon bool) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(colon && c == ':') || (c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return s != ""
}

// EscapeLabelValue escapes a label value for the text exposition format:
// backslash, double quote and newline become \\, \" and \n.
func EscapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}
