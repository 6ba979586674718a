package jsim

import (
	"context"
	"math"
	"runtime"
	"testing"

	"supernpu/internal/faultinject"
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
					if fin.phi[node] != dense.finalPhase(node) {
						t.Fatalf("dt %gps node %d final phase: stream %v, dense %v", ps, node, fin.phi[node], dense.finalPhase(node))
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

// The jsim counters must keep the warm hot loop at zero allocations per
// transient — and must actually count while doing it.
func TestSolverAllocsWithInstrumentationEnabled(t *testing.T) {
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

// doneAt is a Finisher that is done from sample at on; last is the last
// sample it saw.
type doneAt struct{ at, last int }

func (d *doneAt) Init(RunInfo)                                  { d.last = -1 }
func (d *doneAt) Observe(step int, t float64, phi, v []float64) { d.last = step }
func (d *doneAt) Done() bool                                    { return d.last >= d.at }

// A Finisher ends a run at the first polled sample at which it is done:
// every observer has seen samples 0..k and no further, the steps counter
// moves by the k RK4 steps behind them and the transients counter by one.
// A run no Finisher ends integrates one step fewer than its samples: none
// past the last.
func TestFinisherEndsRun(t *testing.T) {
	const T = 120 * sfq.Picosecond // 1201 samples at transientDt
	ch := StandardJTL(4)
	var s Solver
	for _, c := range []struct{ at, want int }{
		{0, 0},
		{5 * pollSteps, 5 * pollSteps},
		{5*pollSteps + 3, 6 * pollSteps}, // Done is asked at polled samples only
		{1 << 30, 1200},
	} {
		f := doneAt{at: c.at}
		var other lastSample
		transients0, steps0 := mTransients.Value(), mSteps.Value()
		if err := s.RunChain(context.Background(), ch, T, transientDt, &f, &other); err != nil {
			t.Fatal(err)
		}
		if f.last != c.want || other.step != c.want {
			t.Errorf("done at %d: the observers saw samples up to %d and %d, want %d", c.at, f.last, other.step, c.want)
		}
		if d := mSteps.Value() - steps0; d != int64(c.want) {
			t.Errorf("done at %d: steps counter moved by %d, want %d", c.at, d, c.want)
		}
		if d := mTransients.Value() - transients0; d != 1 {
			t.Errorf("done at %d: transients counter moved by %d, want 1", c.at, d)
		}
	}
}

// Margin bisection probes (solver + chain + verdict observer, re-biased per
// probe) must also be allocation-free once warm.
func TestMarginProbeSteadyStateAllocs(t *testing.T) {
	p := newMarginProbe(context.Background(), nil, transientDt)
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

// Reusing one solver across chains of different sizes, parameter sets and
// source layouts must reproduce fresh-solver runs bit for bit (no state
// leaks between runs). StorageChain(80 ps)'s two sources are cut off at
// different times; after it come a chain with no sources, a perturbed JTL
// and a JTL whose pulse is centred past T, so its source is never cut off.
func TestSolverReuseNoStateLeak(t *testing.T) {
	const (
		T  = 120 * sfq.Picosecond
		dt = 0.05 * sfq.Picosecond
	)
	noSources := StandardJTL(6)
	noSources.Sources = nil
	late := StandardJTL(8)
	late.Sources[0].At = T + 10*sfq.Picosecond
	sequence := []*Chain{
		StandardJTL(12), StandardJTL(4), StorageChain(0), StorageChain(80 * sfq.Picosecond),
		noSources, PerturbedJTL(10, &faultinject.Model{Seed: 42, IcSpread: 0.06}), late,
		StandardJTL(12),
	}
	var s Solver
	for run, ch := range sequence {
		re, err := record(&s, ch, T, dt)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := record(new(Solver), ch, T, dt)
		if err != nil {
			t.Fatal(err)
		}
		if i := firstBitDiff(re.phi, fresh.phi); i >= 0 {
			t.Fatalf("run %d: reused solver phi departs from a fresh solver's at sample %d", run, i)
		}
		if i := firstBitDiff(re.v, fresh.v); i >= 0 {
			t.Fatalf("run %d: reused solver v departs from a fresh solver's at sample %d", run, i)
		}
	}
}

// refChains are the netlists the fused step is held to the textbook
// reference on, beyond diffChains: the margin probe's line for seed 62 at
// 10 % spread biased at its low boundary and near the top (the variant
// whose margin moved when the certified step landed), a chain with two
// sources on one node, which pins the per-node summation order, and a
// chain that diverges.
func refChains() map[string]*Chain {
	chains := diffChains()
	for name, bias := range map[string]float64{"seed62-0.603": 0.603, "seed62-0.99": 0.99} {
		ch := PerturbedJTL(marginStages, &faultinject.Model{Seed: 62, IcSpread: 0.10})
		for i := range ch.Nodes {
			ch.Nodes[i].Bias = bias * marginIc
		}
		chains[name] = ch
	}
	two := StandardJTL(6)
	two.Sources = append(two.Sources,
		PulseSource{Node: 0, At: 21e-12, Sigma: 0.7e-12, Amp: 0.3e-4},
		PulseSource{Node: 3, At: 60e-12, Sigma: 1.2e-12, Amp: 1.8e-4})
	chains["two-sources"] = two
	// A junction a hundred thousand times smaller in capacitance is far too
	// stiff for either step: the run must fail, identically.
	stiff := StandardJTL(4)
	stiff.Nodes[1].JJ = CriticallyDamped(stiff.Nodes[1].JJ.Ic, stiff.Nodes[1].JJ.C*1e-5)
	chains["diverging"] = stiff
	return chains
}

// The fused step must reproduce the textbook RK4 reference bit for bit:
// every φ and v sample at a fine step and at the production step, and a
// diverging run's failure at the same step, node and error.
//
// The assertion holds on amd64 only. There the compiler rounds every
// multiply and add on its own; on arm64 it contracts a*b+c into one fused
// multiply-add, so two code shapes of one formula may round differently.
func TestFusedStepBitIdenticalToReference(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bitwise identity is pinned on amd64, where no multiply-add is fused; GOARCH is %s", runtime.GOARCH)
	}
	const T = marginProbeT
	for name, ch := range refChains() {
		ch := ch
		t.Run(name, func(t *testing.T) {
			for _, dt := range []float64{0.02 * sfq.Picosecond, transientDt} {
				ps := dt / sfq.Picosecond
				got, gotErr := record(new(Solver), ch, T, dt)
				var ref refSolver
				var want sampleRecorder
				wantErr := ref.run(ch, T, dt, &want)
				if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
					t.Fatalf("dt %gps: fused error %v, reference error %v", ps, gotErr, wantErr)
				}
				if name == "diverging" && gotErr == nil {
					t.Fatalf("dt %gps: the stiff chain did not diverge", ps)
				}
				if i := firstBitDiff(got.phi, want.phi); i >= 0 {
					t.Fatalf("dt %gps: phi departs from the reference at step %d node %d (%d and %d samples)",
						ps, i/len(ch.Nodes), i%len(ch.Nodes), len(got.phi), len(want.phi))
				}
				if i := firstBitDiff(got.v, want.v); i >= 0 {
					t.Fatalf("dt %gps: v departs from the reference at step %d node %d (%d and %d samples)",
						ps, i/len(ch.Nodes), i%len(ch.Nodes), len(got.v), len(want.v))
				}
			}
		})
	}
}

// Past its cutoff time a pulse source must be exactly +0, so the solver may
// stop evaluating it: checked for every source the repo builds from the
// cutoff to 200 ps in 0.01 ps steps and on the ulps just above the cutoff.
// One width earlier the current is still nonzero, so the check is not
// vacuous.
func TestPulseSourceCutoffExact(t *testing.T) {
	srcs := map[string]PulseSource{
		"jtl-input":     StandardJTL(4).Sources[0],
		"storage-input": StorageChain(80 * sfq.Picosecond).Sources[0],
		"storage-clock": StorageChain(80 * sfq.Picosecond).Sources[1],
	}
	for name, p := range srcs {
		end := p.cutoffTime()
		if end != p.At+sourceCutoff*p.Sigma {
			t.Fatalf("%s: cutoff at %v s, want At + %d sigma", name, end, sourceCutoff)
		}
		if p.current(p.At+27*p.Sigma) == 0 {
			t.Errorf("%s: current is already 0 at At + 27 sigma", name)
		}
		check := func(tm float64) {
			if c := p.current(tm); math.Float64bits(c) != 0 {
				t.Fatalf("%s: current(%v s) = %v past the cutoff %v s, want +0", name, tm, c, end)
			}
		}
		for k := 0; ; k++ {
			tm := end + float64(k)*0.01*sfq.Picosecond
			if tm > 200*sfq.Picosecond {
				break
			}
			check(tm)
		}
		for k, tm := 0, end; k < 16; k, tm = k+1, math.Nextafter(tm, math.Inf(1)) {
			check(tm)
		}
	}
}
