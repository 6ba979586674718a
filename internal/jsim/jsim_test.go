package jsim

import (
	"context"
	"errors"
	"math"
	"testing"

	"supernpu/internal/guard"
	"supernpu/internal/sfq"
)

func TestRunInputValidation(t *testing.T) {
	c := StandardJTL(4)
	var s Solver
	if err := s.RunChain(context.Background(), c, 0, 1e-15); err == nil {
		t.Error("RunChain must reject non-positive T")
	}
	if err := s.RunChain(context.Background(), c, 1e-11, 0); err == nil {
		t.Error("RunChain must reject non-positive dt")
	}
	if err := s.RunChain(context.Background(), &Chain{}, 1e-11, 1e-15); err == nil {
		t.Error("RunChain must reject an empty chain")
	}
}

func TestCriticallyDamped(t *testing.T) {
	jj := CriticallyDamped(100e-6, 0.24e-12)
	// βc = 2π·Ic·R²·C/Φ0 must be 1.
	betaC := jj.Ic * jj.R * jj.R * jj.C / phi0over2pi
	if math.Abs(betaC-1) > 1e-9 {
		t.Fatalf("βc = %g, want 1", betaC)
	}
}

// The core physics: a single flux quantum propagates down a JTL as a 2π
// phase slip, every junction slips exactly once, and the pulse arrives at
// later nodes at later times.
func TestFluxonPropagatesDownJTL(t *testing.T) {
	const n = 10
	res, err := runDense(StandardJTL(n), 120*sfq.Picosecond, 0.02*sfq.Picosecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := res.slips(i); got != 1 {
			t.Errorf("node %d slipped %d times, want exactly 1", i, got)
		}
	}
	prev := -1.0
	for i := 1; i < n-1; i++ {
		times := res.pulseTimes(i)
		if len(times) != 1 {
			t.Fatalf("node %d: %d pulses, want 1", i, len(times))
		}
		if times[0] <= prev {
			t.Fatalf("pulse must arrive later at node %d (%.3gps ≤ %.3gps)",
				i, times[0]/sfq.Picosecond, prev/sfq.Picosecond)
		}
		prev = times[0]
	}
}

func TestNoSpontaneousSwitching(t *testing.T) {
	// A biased chain with no input pulse must stay quiescent: the bias is
	// below Ic, so no junction may slip.
	c := StandardJTL(6)
	c.Sources = nil
	res, err := runDense(c, 100*sfq.Picosecond, 0.02*sfq.Picosecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if res.slips(i) != 0 {
			t.Fatalf("node %d switched with no stimulus", i)
		}
	}
	// Quiescent superconducting circuit draws no bias energy (V = 0).
	if e := res.totalBiasEnergy(); math.Abs(e) > 1e-21 {
		t.Fatalf("quiescent bias energy = %g J, want ~0", e)
	}
}

// The extraction the estimator is anchored on: per-stage delay on the ps
// scale and switching energy of order I_bias·Φ0 per junction.
func TestExtractJTLParams(t *testing.T) {
	p, err := ExtractJTLParams(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p.StageDelay < 0.5*sfq.Picosecond || p.StageDelay > 10*sfq.Picosecond {
		t.Errorf("stage delay = %.3g ps, want ps-scale (0.5..10)", p.StageDelay/sfq.Picosecond)
	}
	// ∫ I_bias·V dt = I_bias·Φ0 = 0.7·100µA·Φ0 ≈ 0.145 aJ per slip.
	want := 0.7 * 100e-6 * sfq.FluxQuantum
	if math.Abs(p.SwitchEnergyPerJJ-want)/want > 0.15 {
		t.Errorf("switch energy per JJ = %.3g aJ, want ≈ %.3g aJ (I_bias·Φ0)",
			p.SwitchEnergyPerJJ/sfq.Attojoule, want/sfq.Attojoule)
	}
	if p.StaticPowerPerJJ <= 0 {
		t.Error("RSFQ static power per JJ must be positive")
	}
}

// The extracted switching energy must agree with the cell library's per-JJ
// constant: this is the validation link between the circuit level and the
// analytical gate level.
func TestExtractionMatchesCellLibrary(t *testing.T) {
	p, err := ExtractJTLParams(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	lib := sfq.AIST10()
	rel := math.Abs(p.SwitchEnergyPerJJ-lib.SwitchEnergyPerJJ) / lib.SwitchEnergyPerJJ
	if rel > 0.10 {
		t.Errorf("circuit-level energy %.3g aJ deviates %.1f%% from library %.3g aJ (want <10%%)",
			p.SwitchEnergyPerJJ/sfq.Attojoule, rel*100, lib.SwitchEnergyPerJJ/sfq.Attojoule)
	}
}

// The DFF working principle of Fig. 1(c): store until clocked, then release.
func TestStorageLoopDFFPrinciple(t *testing.T) {
	if err := DFFDemo(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestBiasDelayTradeoff(t *testing.T) {
	// Higher bias current → faster switching → lower propagation delay.
	delayAt := func(bias float64) float64 {
		c := StandardJTL(10)
		for i := range c.Nodes {
			c.Nodes[i].Bias = bias * c.Nodes[i].JJ.Ic
		}
		res, err := runDense(c, 140*sfq.Picosecond, 0.02*sfq.Picosecond)
		if err != nil {
			t.Fatal(err)
		}
		a, b := res.pulseTimes(2), res.pulseTimes(7)
		if len(a) == 0 || len(b) == 0 {
			t.Fatalf("pulse lost at bias %.2f·Ic", bias)
		}
		return (b[0] - a[0]) / 5
	}
	low, high := delayAt(0.65), delayAt(0.85)
	if high >= low {
		t.Fatalf("delay must fall with bias: 0.65·Ic → %.3gps, 0.85·Ic → %.3gps",
			low/sfq.Picosecond, high/sfq.Picosecond)
	}
}

// An absurdly large step must be caught, not silently produce NaNs: at a
// 5 ps step the 4-stage JTL deterministically leaves the voltage envelope.
// The failure must carry guard.ErrDiverged — the class the margin probes
// key on — and count once on the divergence metric.
func TestDivergenceDetection(t *testing.T) {
	var s Solver
	before := mDiverged.Value()
	err := s.RunChain(context.Background(), StandardJTL(4), 100*sfq.Picosecond, 5*sfq.Picosecond)
	if !errors.Is(err, guard.ErrDiverged) {
		t.Fatalf("want guard.ErrDiverged at a 5 ps step, got %v", err)
	}
	if d := mDiverged.Value() - before; d != 1 {
		t.Fatalf("diverged counter moved by %d, want 1", d)
	}
}

func TestPulseTimesInterpolation(t *testing.T) {
	res, err := runDense(StandardJTL(6), 100*sfq.Picosecond, 0.02*sfq.Picosecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range res.pulseTimes(3) {
		if tm < 0 || tm > 100*sfq.Picosecond {
			t.Fatalf("pulse time %g out of simulated range", tm)
		}
	}
}
