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

// series is one (family, label set) time series and its one instrument:
// exactly one of counter/gauge/hist is set, by getSeries under the
// registry lock before the series is published, and never replaced.
type series struct {
	labels  string // pre-rendered `key="value",...` signature, sorted by key
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
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
// of the given kind. A new series gets its one instrument — a counter, a
// gauge, or a histogram over edges — inside the locked section, so every
// caller of one series shares one instrument and nothing writes it after
// the series is published. It panics on a metric name or label key outside
// the exposition charset, on help text holding a backslash or newline, on
// a name already registered under a different kind, and on invalid
// histogram edges (newHistogram): every registration passes program
// constants, so a malformed or conflicting one is a programmer error
// caught at package init, not a runtime condition. Help text and edges are
// not compared; the family keeps its first registration's help and a
// series its first edges.
func (r *Registry) getSeries(name, help, kind string, edges []float64, labels []Label) *series {
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
	sig := labelSignature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
		}
		if s, ok := f.series[sig]; ok {
			return s
		}
	}
	s := &series{labels: sig}
	switch kind {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	default:
		s.hist = newHistogram(edges) // may panic: nothing is published yet
	}
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
	}
	f.series[sig] = s
	return s
}

// Counter finds or creates the counter series (name, labels). Repeat calls
// with the same name and labels return the same counter. It panics on a
// malformed name, label key or help text, or a kind conflict with an
// existing family (see getSeries).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.getSeries(name, help, kindCounter, nil, labels).counter
}

// Gauge finds or creates the gauge series (name, labels). It panics on a
// malformed or conflicting registration (see getSeries).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.getSeries(name, help, kindGauge, nil, labels).gauge
}

// Histogram finds or creates the histogram series (name, labels) with the
// given fixed bucket edges. Edges are set on first creation; repeat calls
// return the existing histogram unchanged. It panics on a malformed or
// conflicting registration or invalid edges (see getSeries and
// newHistogram).
func (r *Registry) Histogram(name, help string, edges []float64, labels ...Label) *Histogram {
	return r.getSeries(name, help, kindHist, edges, labels).hist
}

// formatFloat renders a sample value in the shortest round-tripping form.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
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
// It copies the family and series lists under the registry lock and reads
// values after unlocking: a series' instrument never changes once
// published, so the copied pointers stay the live instruments.
func (r *Registry) WritePrometheus(w io.Writer) error {
	type famSnap struct {
		f  *family
		ss []*series
	}
	r.mu.Lock()
	snaps := make([]famSnap, 0, len(r.families))
	for _, f := range r.families {
		ss := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			ss = append(ss, s)
		}
		sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
		snaps = append(snaps, famSnap{f, ss})
	}
	r.mu.Unlock()

	sort.Slice(snaps, func(i, j int) bool { return snaps[i].f.name < snaps[j].f.name })
	for _, snap := range snaps {
		f, ss := snap.f, snap.ss
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, s := range ss {
			var err error
			switch {
			case s.hist != nil:
				err = writeHistogram(w, f.name, s.labels, s.hist)
			case s.counter != nil:
				err = writeSample(w, f.name, s.labels, "", float64(s.counter.Value()))
			default:
				err = writeSample(w, f.name, s.labels, "", float64(s.gauge.Value()))
			}
			if err != nil {
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
