// Package obs is the repository's unified observability layer: a
// stdlib-only metrics registry (counters, gauges, histograms with fixed
// bucket edges) plus lightweight phase-scoped tracing spans with JSONL
// export. The hot layers of the evaluation pipeline — the worker pool, the
// memo caches, the JSIM solver, the exhibit harness and the HTTP service —
// register their instruments here, and the evaluation service exposes the
// registry in Prometheus text exposition format on GET /metrics.
//
// # Determinism contract
//
// Observability is strictly write-only from the modeling packages'
// perspective: simulators and estimators may bump instruments, but nothing
// they compute may ever depend on instrument state (the supernpu-lint
// obsflow rule rejects reads at the source level, and the differential
// golden test proves exhibit bytes are identical with span tracing on and
// off). Registry output itself is deterministic in *structure*: families
// and series render in sorted order and histogram bucket edges are fixed at
// registration, so two scrapes differ only in measured values.
//
// # Cost model
//
// Counters and gauges are single atomic cells: they double as functional
// statistics (cache hit rates, queue occupancy), and their cost — one
// uncontended atomic add, zero allocations — is at the noise floor of any
// workload this repository runs. Histograms are a few atomic adds per
// observation and allocate nothing, so they always record too. Only span
// emission, which reads the clock and formats bytes, is gated: with no
// trace writer configured (SetTraceWriter) a span is a single atomic load,
// so the zero-allocation guarantee of the JSIM hot loop holds with
// instrumentation compiled in.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Label is one key=value pair attached to an instrument at registration.
// A key must be a Prometheus label name ([a-zA-Z_][a-zA-Z0-9_]*; the
// registry panics on any other); a value may be any string, escaped at
// exposition time.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing count. A Registry creates one per
// series (Registry.Counter); there is no standalone constructor.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset zeroes the counter. Prometheus consumers treat a shrinking counter
// as a process restart, which is exactly the semantic of the one in-tree
// caller: a memo cache built or cleared (a cold-start benchmark's Clear).
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is a value that moves in both directions. A Registry creates one
// per series (Registry.Gauge).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc moves the gauge up by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec moves the gauge down by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current reading.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DurationEdges is the standard bucket layout for wall-time histograms:
// decades from 1 µs to 10 s. The edges are fixed at compile time, so the
// exposition structure of every duration histogram is deterministic.
var DurationEdges = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// SizeEdges is the standard bucket layout for dimensionless size
// histograms (batch sizes, queue lengths): powers of four from 1 to 16384.
var SizeEdges = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384}

// Histogram is a fixed-bucket histogram. Bucket edges are upper bounds in
// ascending order, set once at construction; an implicit +Inf bucket
// catches the overflow. Histograms are pure telemetry, never functional
// state.
type Histogram struct {
	edges   []float64
	buckets []atomic.Int64 // one per edge, plus the +Inf overflow at the end
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum, CAS-updated
}

// newHistogram returns the histogram of a new series (Registry.Histogram)
// over the given ascending bucket edges. It panics if edges is empty or
// not strictly ascending — bucket layout is a compile-time decision, so a
// bad layout is a programmer error, not a runtime condition.
func newHistogram(edges []float64) *Histogram {
	if len(edges) == 0 {
		panic("obs: histogram needs at least one bucket edge")
	}
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) {
			panic("obs: histogram bucket edges must be strictly ascending")
		}
	}
	h := &Histogram{
		edges:   append([]float64(nil), edges...),
		buckets: make([]atomic.Int64, len(edges)+1),
	}
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	i := 0
	for i < len(h.edges) && x > h.edges[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of recorded samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// BucketCounts returns the per-bucket (non-cumulative) counts; the final
// element is the +Inf overflow bucket. The slice is a fresh copy.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Edges returns the histogram's bucket upper bounds (a fresh copy).
func (h *Histogram) Edges() []float64 { return append([]float64(nil), h.edges...) }

// Time starts a wall-clock measurement against h and returns the function
// that stops it, recording the elapsed seconds:
//
//	defer obs.Time(h)()
//
// Modeling packages may call this freely — the lint nondeterminism rule
// stays satisfied because the clock read lives here.
func Time(h *Histogram) func() {
	start := time.Now()
	return func() { h.Observe(time.Since(start).Seconds()) }
}
