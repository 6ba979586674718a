package jsim

import (
	"context"
	"testing"

	"supernpu/internal/faultinject"
	sobs "supernpu/internal/obs"
	"supernpu/internal/sfq"
	"supernpu/internal/simcache"
)

// diffChains are the netlists the differential battery runs: a plain JTL, the
// two storage-loop variants (parked and clocked fluxon) and a fault-injected
// JTL with Ic spread.
func diffChains() map[string]*Chain {
	fm := &faultinject.Model{Seed: 7, IcSpread: 0.05}
	return map[string]*Chain{
		"jtl":          StandardJTL(10),
		"storage-hold": StorageChain(0),
		"storage-clk":  StorageChain(80 * sfq.Picosecond),
		"faulted-jtl":  PerturbedJTL(8, fm),
	}
}

// The tentpole contract: every streaming observer reproduces its dense
// post-processing counterpart bit-for-bit — pulse times, bias energy and
// final state — across JTL, storage-loop and fault-injected chains, at a
// fine step and at the production step.
func TestStreamingObserversBitIdenticalToDense(t *testing.T) {
	const T = 120 * sfq.Picosecond
	for name, ch := range diffChains() {
		ch := ch
		t.Run(name, func(t *testing.T) {
			for _, dt := range []float64{0.02 * sfq.Picosecond, transientDt} {
				dense, err := runDense(ch, T, dt)
				if err != nil {
					t.Fatal(err)
				}

				var (
					s      Solver
					pulse  PulseDetector
					energy EnergyAccumulator
					fin    FinalState
				)
				if err := s.RunChain(context.Background(), ch, T, dt, &pulse, &energy, &fin); err != nil {
					t.Fatal(err)
				}

				ps := dt / sfq.Picosecond
				for node := range ch.Nodes {
					want := dense.pulseTimes(node)
					got := pulse.Times(node)
					if len(got) != len(want) {
						t.Fatalf("dt %gps node %d: %d streamed pulses, %d dense", ps, node, len(got), len(want))
					}
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("dt %gps node %d pulse %d: stream %v, dense %v", ps, node, k, got[k], want[k])
						}
					}
					if fin.Phase(node) != dense.finalPhase(node) {
						t.Fatalf("dt %gps node %d final phase: stream %v, dense %v", ps, node, fin.Phase(node), dense.finalPhase(node))
					}
					if fin.Slips(node) != dense.slips(node) {
						t.Fatalf("dt %gps node %d slips: stream %d, dense %d", ps, node, fin.Slips(node), dense.slips(node))
					}
				}
				if energy.Total() != dense.totalBiasEnergy() {
					t.Fatalf("dt %gps total bias energy: stream %v, dense %v", ps, energy.Total(), dense.totalBiasEnergy())
				}
			}
		})
	}
}

// A reused Solver with reused streaming observers must not allocate once
// warm — the property that makes margin/fault sweeps allocation-free.
func TestSolverSteadyStateAllocs(t *testing.T) {
	ch := StandardJTL(10)
	var (
		s      Solver
		pulse  PulseDetector
		energy EnergyAccumulator
		fin    FinalState
	)
	obs := []Observer{&pulse, &energy, &fin}
	run := func() {
		if err := s.RunChain(context.Background(), ch, 120*sfq.Picosecond, 0.02*sfq.Picosecond, obs...); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up sizes every buffer
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Fatalf("steady-state solver allocations = %g per run, want 0", n)
	}
}

// With observability explicitly enabled (the shipping default), the
// always-live jsim counters must keep the warm hot loop at zero
// allocations per transient — and must actually count while doing it.
func TestSolverAllocsWithInstrumentationEnabled(t *testing.T) {
	sobs.SetEnabled(true)
	ch := StandardJTL(10)
	var (
		s     Solver
		pulse PulseDetector
		fin   FinalState
	)
	obs := []Observer{&pulse, &fin}
	run := func() {
		if err := s.RunChain(context.Background(), ch, 120*sfq.Picosecond, 0.02*sfq.Picosecond, obs...); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up sizes every buffer
	transients0 := mTransients.Value()
	steps0 := mSteps.Value()
	pulses0 := mPulses.Value()
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Fatalf("instrumented solver allocations = %g per run, want 0", n)
	}
	// AllocsPerRun calls run 11 times (one warm-up plus 10 measured).
	if d := mTransients.Value() - transients0; d < 11 {
		t.Errorf("transients counter moved by %d, want >= 11", d)
	}
	if mSteps.Value() <= steps0 {
		t.Error("steps counter did not move")
	}
	if mPulses.Value() <= pulses0 {
		t.Error("pulse counter did not move (the JTL trigger pulse must propagate)")
	}
}

// Margin bisection probes (solver + chain + final-state observer, re-biased
// per probe) must also be allocation-free once warm.
func TestMarginProbeSteadyStateAllocs(t *testing.T) {
	p := newMarginProbe(context.Background(), NewSolver(), nil, transientDt)
	p.works(marginNominal) // warm-up
	if n := testing.AllocsPerRun(10, func() { p.works(marginNominal) }); n != 0 {
		t.Fatalf("steady-state margin-probe allocations = %g per run, want 0", n)
	}
}

// Step-count regression: the legacy int(T/dt)+1 truncation lost the final
// sample whenever T/dt landed a few ulps under an integer (160 ps / 0.02 ps,
// 80 ps / 0.05 ps). Pin the counts of the production transients and those
// two ulp-guard cases.
func TestStepCountRegression(t *testing.T) {
	ps := sfq.Picosecond
	cases := []struct {
		T, dt float64
		want  int
	}{
		{120 * ps, transientDt, 1201},     // JTL parameter extraction
		{marginProbeT, transientDt, 1401}, // bias-margin probes
		{160 * ps, transientDt, 1601},     // DFF demo
		{160 * ps, 0.02 * ps, 8001},       // lost a step before the guard
		{80 * ps, 0.05 * ps, 1601},        // lost a step before the guard
		{100 * ps, 0.02 * ps, 5001},
		{100 * ps, 5 * ps, 21}, // divergence test's coarse step
	}
	for _, c := range cases {
		if got := stepCount(c.T, c.dt); got != c.want {
			t.Errorf("stepCount(%gps, %gps) = %d, want %d",
				c.T/ps, c.dt/ps, got, c.want)
		}
	}
	// A genuinely fractional quotient must still truncate.
	if got := stepCount(10.5, 1); got != 11 {
		t.Errorf("stepCount(10.5, 1) = %d, want 11", got)
	}
}

// RunBatch must agree with one-at-a-time runs on every job.
func TestRunBatchMatchesSequential(t *testing.T) {
	chains := []*Chain{StandardJTL(6), StandardJTL(10), StorageChain(0)}
	const (
		T  = 120 * sfq.Picosecond
		dt = 0.05 * sfq.Picosecond
	)
	jobs := make([]BatchJob, len(chains))
	fins := make([]*FinalState, len(chains))
	for i, ch := range chains {
		fins[i] = &FinalState{}
		jobs[i] = BatchJob{Chain: ch, T: T, Dt: dt, Observers: []Observer{fins[i]}}
	}
	if err := RunBatch(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	for i, ch := range chains {
		dense, err := runDense(ch, T, dt)
		if err != nil {
			t.Fatal(err)
		}
		for node := range ch.Nodes {
			if fins[i].Phase(node) != dense.finalPhase(node) {
				t.Fatalf("job %d node %d: batch %v, sequential %v",
					i, node, fins[i].Phase(node), dense.finalPhase(node))
			}
		}
	}
}

// The batched margin evaluation must agree with one-variant batches and with
// itself across cold and warm (memoised) passes.
func TestBiasMarginsFaultedBatch(t *testing.T) {
	models := []*faultinject.Model{
		nil,
		{Seed: 42, IcSpread: 0.02},
		{Seed: 42, IcSpread: 0.04},
	}
	simcache.ClearAll()
	batch, err := BiasMarginsFaultedBatch(context.Background(), models)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(models) {
		t.Fatalf("batch returned %d margins for %d models", len(batch), len(models))
	}
	for i, fm := range models {
		single, err := BiasMarginsFaultedBatch(context.Background(), []*faultinject.Model{fm})
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != single[0] {
			t.Errorf("model %d: batch %+v, single %+v", i, batch[i], single[0])
		}
	}
	// Cold recompute must reproduce the memoised values exactly.
	simcache.ClearAll()
	cold, err := BiasMarginsFaultedBatch(context.Background(), models)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if cold[i] != batch[i] {
			t.Errorf("model %d: cold %+v, warm %+v", i, cold[i], batch[i])
		}
	}
}

// Reusing one solver across chains of different sizes and parameter sets
// must reproduce fresh-solver results exactly (no state leaks between runs).
func TestSolverReuseNoStateLeak(t *testing.T) {
	var s Solver
	sequence := []*Chain{StandardJTL(12), StandardJTL(4), StorageChain(0), StandardJTL(12)}
	const (
		T  = 120 * sfq.Picosecond
		dt = 0.05 * sfq.Picosecond
	)
	for run, ch := range sequence {
		var reFin FinalState
		if err := s.RunChain(context.Background(), ch, T, dt, &reFin); err != nil {
			t.Fatal(err)
		}
		dense, err := runDense(ch, T, dt)
		if err != nil {
			t.Fatal(err)
		}
		for node := range ch.Nodes {
			if reFin.Phase(node) != dense.finalPhase(node) {
				t.Fatalf("run %d node %d: reused solver %v, fresh %v",
					run, node, reFin.Phase(node), dense.finalPhase(node))
			}
		}
	}
}
