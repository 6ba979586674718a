package obs

import (
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	c := NewCounter()
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Errorf("counter = %d, want 42", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Errorf("counter after Reset = %d, want 0", c.Value())
	}

	g := NewGauge()
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("gauge = %d, want 7", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, x := range []float64{0.5, 1, 5, 10, 99, 100, 101, 1e6} {
		h.Observe(x)
	}
	// Edges are upper bounds: x <= edge lands in that bucket.
	want := []int64{2, 2, 2, 2}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	if h.Sum() <= 1e6 {
		t.Errorf("sum = %g, want > 1e6", h.Sum())
	}
	if e := h.Edges(); len(e) != 3 || e[2] != 100 {
		t.Errorf("edges = %v, want [1 10 100]", e)
	}
}

func TestHistogramPanicsOnBadEdges(t *testing.T) {
	for _, edges := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", edges)
				}
			}()
			NewHistogram(edges)
		}()
	}
}

func TestDisabledGating(t *testing.T) {
	defer SetEnabled(true)

	h := NewHistogram([]float64{1})
	c := NewCounter()

	SetEnabled(false)
	if Enabled() {
		t.Fatal("Enabled() = true after SetEnabled(false)")
	}
	h.Observe(0.5)
	Time(h)()
	c.Inc() // counters stay live by contract
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("disabled histogram recorded count=%d sum=%g, want 0", h.Count(), h.Sum())
	}
	if c.Value() != 1 {
		t.Errorf("disabled counter = %d, want 1 (counters are always live)", c.Value())
	}

	SetEnabled(true)
	h.Observe(0.5)
	if h.Count() != 1 {
		t.Errorf("re-enabled histogram count = %d, want 1", h.Count())
	}
	done := Time(h)
	done()
	if h.Count() != 2 {
		t.Errorf("Time did not observe: count = %d, want 2", h.Count())
	}
}

func TestDisabledPathsDoNotAllocate(t *testing.T) {
	defer SetEnabled(true)
	SetEnabled(false)
	h := NewHistogram([]float64{1})
	c := NewCounter()
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		h.Observe(1)
		Time(h)()
		StartSpan("x").End()
	}); n != 0 {
		t.Errorf("disabled instrument paths allocate %v times per run, want 0", n)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "help")
	c2 := r.Counter("x_total", "help")
	if c1 != c2 {
		t.Error("repeat Counter registration returned a different instrument")
	}
	if r.Counter("x_total", "help", L("k", "a")) == c1 {
		t.Error("different labels returned the same series")
	}
	h1 := r.Histogram("h_seconds", "help", DurationEdges)
	if h1 != r.Histogram("h_seconds", "help", DurationEdges) {
		t.Error("repeat Histogram registration returned a different instrument")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "help")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "help")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "counts b").Add(3)
	r.Gauge("a_gauge", "gauges a", L("k", "v")).Set(-2)
	r.GaugeFunc("c_fn", "callback gauge", func() float64 { return 1.5 })
	h := r.Histogram("d_seconds", "times d", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP a_gauge gauges a\n# TYPE a_gauge gauge\na_gauge{k=\"v\"} -2\n",
		"# HELP b_total counts b\n# TYPE b_total counter\nb_total 3\n",
		"c_fn 1.5\n",
		"# TYPE d_seconds histogram\n",
		"d_seconds_bucket{le=\"1\"} 1\n",
		"d_seconds_bucket{le=\"10\"} 2\n",
		"d_seconds_bucket{le=\"+Inf\"} 3\n",
		"d_seconds_sum 55.5\n",
		"d_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Families render in sorted name order.
	if !(strings.Index(out, "a_gauge") < strings.Index(out, "b_total") &&
		strings.Index(out, "b_total") < strings.Index(out, "c_fn")) {
		t.Errorf("families not sorted:\n%s", out)
	}

	// Structure is deterministic across scrapes.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if out != b2.String() {
		t.Error("two scrapes with unchanged values differ")
	}
}

func TestWritePrometheusSeriesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "help", L("x", "b")).Inc()
	r.Counter("m_total", "help", L("x", "a")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Index(out, `x="a"`) > strings.Index(out, `x="b"`) {
		t.Errorf("series not sorted by label signature:\n%s", out)
	}
}

func TestCounterFuncReplacesAndSurvivesCounter(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "help").Add(5)
	r.CounterFunc("x_total", "help", func() float64 { return 9 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "x_total 9\n") {
		t.Errorf("CounterFunc did not replace the stored counter:\n%s", b.String())
	}
	// A later Counter() at the same series must still hand out a usable
	// instrument (the callback keeps priority for rendering).
	c := r.Counter("x_total", "help")
	if c == nil {
		t.Fatal("Counter returned nil after CounterFunc registration")
	}
	c.Inc()
}

func TestSanitizeNames(t *testing.T) {
	tests := []struct{ in, metric, label string }{
		{"good_name", "good_name", "good_name"},
		{"name:with:colons", "name:with:colons", "name_with_colons"},
		{"has-dash.dot", "has_dash_dot", "has_dash_dot"},
		{"9leading", "_9leading", "_9leading"},
		{"", "_", "_"},
		{"sp ace\n", "sp_ace_", "sp_ace_"},
		{"héllo", "h__llo", "h__llo"},
	}
	for _, tt := range tests {
		if got := SanitizeMetricName(tt.in); got != tt.metric {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", tt.in, got, tt.metric)
		}
		if got := SanitizeLabelName(tt.in); got != tt.label {
			t.Errorf("SanitizeLabelName(%q) = %q, want %q", tt.in, got, tt.label)
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	tests := []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`qu"ote`, `qu\"ote`},
		{"new\nline", `new\nline`},
		{"héllo", "héllo"}, // UTF-8 passes through untouched
	}
	for _, tt := range tests {
		if got := EscapeLabelValue(tt.in); got != tt.want {
			t.Errorf("EscapeLabelValue(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
	if got := EscapeHelp("a\\b\nc\"d"); got != `a\\b\nc"d` {
		t.Errorf("EscapeHelp = %q, want backslash and newline escaped, quote kept", got)
	}
}

func TestDefaultRegistryHasRepoFamilies(t *testing.T) {
	// The Default registry accumulates families from every linked package;
	// this package alone registers nothing, so just check the plumbing.
	var b strings.Builder
	if err := WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
}
