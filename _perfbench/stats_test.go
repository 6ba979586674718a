package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2}, 1.25, 3, 4.75},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); m != c.q2 {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		v      float64
		beyond int
		ok     bool
	}{
		{1000, 99, 990, 10, true},
		{999, 99, 990, 9, false},
		{100, 90, 90, 10, true},
		{99, 90, 90, 9, false},
		{20000, 99.9, 19980, 20, true},
	}
	for _, c := range cases {
		v, beyond, ok := percentile(seq(c.n), c.p)
		if v != c.v || beyond != c.beyond || ok != c.ok {
			t.Errorf("percentile(1..%d, %g) = %v, %d beyond, ok %t; want %v, %d, %t",
				c.n, c.p, v, beyond, ok, c.v, c.beyond, c.ok)
		}
	}
	if p, _, ok := tail(seq(5000)); !ok || p != 99 {
		t.Errorf("tail of 5000 samples picked p%g (ok %t), want p99", p, ok)
	}
	if _, _, ok := tail(seq(99)); ok {
		t.Error("tail of 99 samples must not print any percentile")
	}
	var s metricSet
	s.latency("x_ms", seq(99))
	if strings.Contains(s.list[0].Note, "; p") {
		t.Errorf("note %q prints a percentile without ten samples beyond it", s.list[0].Note)
	}
	s.latency("y_ms", seq(1000))
	if !strings.Contains(s.list[1].Note, "median of 1000") || !strings.Contains(s.list[1].Note, "p99 ") {
		t.Errorf("note %q must give the sample count and p99", s.list[1].Note)
	}
}

func TestFailuresEnterPercentilesAsInfinite(t *testing.T) {
	inf := math.Inf(1)
	xs := append(seq(990), inf, inf, inf, inf, inf, inf, inf, inf, inf, inf, inf)
	v, _, ok := percentile(xs, 99)
	if !ok || !math.IsInf(v, 1) {
		t.Errorf("p99 with 11 failures in 1001 = %v (ok %t), want +Inf", v, ok)
	}
	if m := median([]float64{1, inf, inf}); !math.IsInf(m, 1) {
		t.Errorf("median with most operations failed = %v, want +Inf", m)
	}
	q1, q2, q3 := quartiles([]float64{1, inf})
	for _, q := range []float64{q1, q2, q3} {
		if math.IsNaN(q) {
			t.Fatalf("quartiles([1 +Inf]) = %v %v %v: a failure turned into NaN", q1, q2, q3)
		}
	}
	var s metricSet
	s.add("p50_ms", inf, "ms", "")
	var r result
	if err := json.Unmarshal([]byte(encodeResult(true, 3, 2, &s)), &r); err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Metrics["p50_ms"].Value != math.MaxFloat64 {
		t.Errorf("an infinite metric must encode as the largest float and mark the run incorrect: %+v", r)
	}
}

func TestEveryPrintedMetricCarriesItsUnit(t *testing.T) {
	var s metricSet
	s.add("setup_s", 0.5, "s", "median of 9 set-ups")
	s.latency("cold_ms", seq(30))
	s.add("entries", 12, "count", "")
	var buf bytes.Buffer
	s.print(&buf)
	line := regexp.MustCompile(`^\S+ +=\s\S+ \S+( |$)`)
	for _, l := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !line.MatchString(l) {
			t.Errorf("line %q is not `name = value unit`", l)
		}
	}
	var r result
	if err := json.Unmarshal([]byte(encodeResult(true, 1, 0, &s)), &r); err != nil {
		t.Fatal(err)
	}
	for name, v := range r.Metrics {
		if v.Unit == "" {
			t.Errorf("result metric %s has no unit", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a metric without a unit was accepted")
		}
	}()
	s.add("bare", 1, "", "")
}
