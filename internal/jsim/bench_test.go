package jsim

import (
	"context"
	"testing"

	"supernpu/internal/faultinject"
	"supernpu/internal/sfq"
)

// BenchmarkRunStreaming measures the same transient through a reused Solver
// and streaming observers — the sweep-engine hot path. Steady state is
// allocation-free (pinned by TestSolverSteadyStateAllocs).
func BenchmarkRunStreaming(b *testing.B) {
	ch := StandardJTL(12)
	var (
		s      Solver
		pulse  PulseDetector
		energy EnergyAccumulator
		fin    FinalState
	)
	obs := []Observer{&pulse, &energy, &fin}
	if err := s.RunChain(context.Background(), ch, 120*sfq.Picosecond, transientDt, obs...); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RunChain(context.Background(), ch, 120*sfq.Picosecond, transientDt, obs...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBiasMargins measures one full nominal bias-margin evaluation
// without the cache: 26 transients (2 + 2×12) on one solver, each ending
// at the first polled sample its verdict is final at.
func BenchmarkBiasMargins(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := biasMargins(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBiasMarginsFaulted measures one faulted margin row (seed 7, 6 %
// spread) through biasMargins, without the cache: the unit a cold margin
// sweep is made of. A row runs 26 transients (2 + 2×12), or 1 when the
// spread closes the window at the design point; each ends at the first
// polled sample its verdict is final at.
func BenchmarkBiasMarginsFaulted(b *testing.B) {
	fm := &faultinject.Model{Seed: 7, IcSpread: 0.06}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := biasMargins(context.Background(), fm); err != nil {
			b.Fatal(err)
		}
	}
}
