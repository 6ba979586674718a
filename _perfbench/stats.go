package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// quartiles returns the first quartile, the median and the third quartile
// of xs, computed like Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so figures printed here match the tooling that
// compares runs. One sample is its own quartiles; no samples give NaN.
// Failed operations enter as +Inf and sort last.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	ld := len(s)
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = interpolate(s[j-1], s[j], delta)
	}
	return q[0], q[1], q[2]
}

// interpolate returns (lo·(4−delta) + hi·delta)/4, as Python does (for
// two samples delta leaves [0, 4] and the formula extrapolates), without
// multiplying an infinite sample by a zero weight, which would turn a
// failed operation into NaN instead of +Inf.
func interpolate(lo, hi float64, delta int) float64 {
	switch delta {
	case 0:
		return lo
	case 4:
		return hi
	}
	return (lo*float64(4-delta) + hi*float64(delta)) / 4
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// minBeyond is how many samples must lie beyond a percentile before it is
// worth printing: fewer and the figure is one or two outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs and the number
// of samples beyond it. ok is false when fewer than minBeyond samples lie
// beyond, in which case the percentile must not be printed.
func percentile(xs []float64, p float64) (v float64, beyond int, ok bool) {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return math.NaN(), 0, false
	}
	// The epsilon keeps p·n/100 from rounding up past an exact rank
	// (99.9% of 20000 is 19980, not 19981).
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	rank = max(1, min(rank, len(s)))
	beyond = len(s) - rank
	return s[rank-1], beyond, beyond >= minBeyond
}

// tail picks the highest of p99.9, p99 and p90 that has minBeyond samples
// beyond it, as the tail figure to print beside a median.
func tail(xs []float64) (p, v float64, ok bool) {
	for _, p := range []float64{99.9, 99, 90} {
		if v, _, ok := percentile(xs, p); ok {
			return p, v, true
		}
	}
	return 0, 0, false
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// metric is one named, unit-carrying figure of a run.
type metric struct {
	Name  string
	Value float64
	Unit  string
	// Note is printed after the value on the human-readable line only.
	Note string
}

// metricSet keeps metrics in the order they were added and refuses any
// without a unit, so nothing is ever printed as a bare number.
type metricSet struct {
	list []metric
}

func (s *metricSet) add(name string, value float64, unit, note string) {
	if unit == "" {
		panic("metric " + name + " has no unit")
	}
	s.list = append(s.list, metric{Name: name, Value: value, Unit: unit, Note: note})
}

// latency adds the median of samples (ms) as name, noting the sample count
// and, when enough samples lie beyond it, the tail percentile.
func (s *metricSet) latency(name string, samples []float64) {
	note := fmt.Sprintf("median of %d", len(samples))
	if p, v, ok := tail(samples); ok {
		note += fmt.Sprintf("; p%g %s ms", p, formatValue(v))
	}
	s.add(name, median(samples), "ms", note)
}

func formatValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

// print writes one "name = value unit" line per metric.
func (s *metricSet) print(w io.Writer) {
	for _, m := range s.list {
		line := fmt.Sprintf("%-28s = %s %s", m.Name, formatValue(m.Value), m.Unit)
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
}

// result is the last line of a run: whether every output check passed,
// how many operations were attempted and failed, and the metrics.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// encodeResult renders the result line. JSON has no infinities, so a
// non-finite value (a median over mostly failed operations) is written as
// the largest float and the run is marked incorrect.
func encodeResult(correct bool, attempted, failed int, s *metricSet) string {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]resultValue{}}
	for _, m := range s.list {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = math.MaxFloat64
			r.Correct = false
		}
		r.Metrics[m.Name] = resultValue{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // only finite floats and strings reach the encoder
	}
	return string(b)
}
