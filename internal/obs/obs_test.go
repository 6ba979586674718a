package obs

import (
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Errorf("counter = %d, want 42", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Errorf("counter after Reset = %d, want 0", c.Value())
	}

	g := r.Gauge("g", "help")
	g.Set(10)
	g.Inc()
	g.Inc()
	g.Dec()
	if g.Value() != 11 {
		t.Errorf("gauge = %d, want 11", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
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
	if e := h.edges; len(e) != 3 || e[2] != 100 {
		t.Errorf("edges = %v, want [1 10 100]", e)
	}
	Time(h)()
	if h.Count() != 9 {
		t.Errorf("Time did not observe: count = %d, want 9", h.Count())
	}
}

func TestHistogramPanicsOnBadEdges(t *testing.T) {
	for _, edges := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newHistogram(%v) did not panic", edges)
				}
			}()
			newHistogram(edges)
		}()
	}
}

// The untraced instrument paths — counter bumps, histogram observations
// and spans with no trace writer installed — must not allocate: the JSIM
// hot loop and every cache lookup run them.
func TestDisabledPathsDoNotAllocate(t *testing.T) {
	h := newHistogram([]float64{1})
	c := NewRegistry().Counter("c_total", "help")
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		h.Observe(1)
		StartSpan("x").End()
	}); n != 0 {
		t.Errorf("untraced instrument paths allocate %v times per run, want 0", n)
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
		strings.Index(out, "b_total") < strings.Index(out, "d_seconds")) {
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

// TestRegistrationRejectsMalformedNames pins the registry's naming
// contract: a legal metric name, label key and help text register, and an
// illegal one panics, as a kind conflict does.
func TestRegistrationRejectsMalformedNames(t *testing.T) {
	tests := []struct {
		name, key, help string
		legal           bool
	}{
		{"good_name", "good_key", `quotes are "fine"`, true},
		{"name:with:colons", "_k9", "", true},
		{"_9", "K", "help", true},
		{"", "k", "help", false},
		{"has-dash.dot", "k", "help", false},
		{"9leading", "k", "help", false},
		{"héllo", "k", "help", false},
		{"x_total", "with:colon", "help", false},
		{"x_total", "9leading", "help", false},
		{"x_total", "", "help", false},
		{"x_total", "k", `back\slash`, false},
		{"x_total", "k", "new\nline", false},
	}
	for _, tt := range tests {
		func() {
			defer func() {
				if panicked := recover() != nil; panicked == tt.legal {
					t.Errorf("Counter(%q, %q, L(%q, _)): panicked = %v, want %v",
						tt.name, tt.help, tt.key, panicked, !tt.legal)
				}
			}()
			NewRegistry().Counter(tt.name, tt.help, L(tt.key, "v"))
		}()
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
}

func TestDefaultRegistryHasRepoFamilies(t *testing.T) {
	// The Default registry accumulates families from every linked package;
	// this package alone registers nothing, so just check the plumbing.
	var b strings.Builder
	if err := WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
}
