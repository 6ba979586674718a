package estimator

import (
	"context"
	"math"
	"testing"

	"supernpu/internal/arch"
	"supernpu/internal/sfq"
)

func estimateOrDie(t *testing.T, cfg arch.Config) *Result {
	t.Helper()
	r, err := Estimate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Table I: every SFQ design runs at ~52.6 GHz — the 8-bit MAC pipeline is
// the binding unit; buffers (71 GHz) and DAU are faster.
func TestTable1Frequency(t *testing.T) {
	for _, cfg := range arch.Designs() {
		r := estimateOrDie(t, cfg)
		f := r.Frequency / sfq.GHz
		if math.Abs(f-52.6) > 1.0 {
			t.Errorf("%s frequency = %.2f GHz, want ~52.6", cfg.Name, f)
		}
	}
}

// Table I: peak performance 3366 TMAC/s for the 256-wide designs and
// 842 TMAC/s for the 64-wide designs (we allow the small frequency delta).
func TestTable1PeakPerformance(t *testing.T) {
	want := map[string]float64{
		"Baseline": 3366, "Buffer opt.": 3366,
		"Resource opt.": 842, "SuperNPU": 842,
	}
	for _, cfg := range arch.Designs() {
		r := estimateOrDie(t, cfg)
		got := r.PeakMACs / 1e12
		if math.Abs(got-want[cfg.Name])/want[cfg.Name] > 0.05 {
			t.Errorf("%s peak = %.0f TMAC/s, want ≈%.0f", cfg.Name, got, want[cfg.Name])
		}
	}
}

// Table I: 28 nm-equivalent areas ≈ 283 / 285 / 298 / 299 mm² — all below
// the TPU core's <331 mm².
func TestTable1Area(t *testing.T) {
	want := map[string]float64{
		"Baseline": 283, "Buffer opt.": 285,
		"Resource opt.": 298, "SuperNPU": 299,
	}
	for _, cfg := range arch.Designs() {
		r := estimateOrDie(t, cfg)
		got := r.Area28nm / sfq.SquareMillimetre
		if math.Abs(got-want[cfg.Name])/want[cfg.Name] > 0.03 {
			t.Errorf("%s area = %.1f mm² @28nm, want ≈%.0f", cfg.Name, got, want[cfg.Name])
		}
		if got >= 331 {
			t.Errorf("%s area %.1f mm² must stay under the TPU core's 331 mm²", cfg.Name, got)
		}
	}
}

// Table III: SuperNPU under RSFQ dissipates ~964 W of static (bias) power
// — infeasible, which is why the paper turns to ERSFQ (exactly 0 static).
func TestTable3StaticPower(t *testing.T) {
	rsfq := estimateOrDie(t, arch.SuperNPU())
	if rsfq.StaticPower < 900 || rsfq.StaticPower > 1050 {
		t.Errorf("RSFQ SuperNPU static power = %.0f W, want ≈964 W", rsfq.StaticPower)
	}
	e := arch.SuperNPU()
	e.Tech = sfq.ERSFQ
	ersfq := estimateOrDie(t, e)
	if ersfq.StaticPower != 0 {
		t.Errorf("ERSFQ static power = %g, want exactly 0", ersfq.StaticPower)
	}
	// Same area and frequency: ERSFQ only changes biasing.
	if math.Abs(ersfq.Area28nm-rsfq.Area28nm)/rsfq.Area28nm > 1e-9 {
		t.Error("ERSFQ must not change the area")
	}
	if ersfq.Frequency != rsfq.Frequency {
		t.Error("ERSFQ must not change the frequency")
	}
}

func TestBuffersDominateStaticPower(t *testing.T) {
	// The insight behind Table III: shift-register bit-cells, not PEs,
	// burn the static power (46+ MB of always-biased DFF rows).
	r := estimateOrDie(t, arch.SuperNPU())
	peU, _ := r.Unit("PE array")
	ifU, _ := r.Unit("Ifmap buffer")
	outU, _ := r.Unit("Output buffer")
	if ifU.StaticPower+outU.StaticPower < 5*peU.StaticPower {
		t.Errorf("buffer static power (%.0f W) must dwarf PE array (%.0f W)",
			ifU.StaticPower+outU.StaticPower, peU.StaticPower)
	}
}

func TestEstimateRejectsInvalidConfig(t *testing.T) {
	bad := arch.Baseline()
	bad.ArrayWidth = 0
	if _, err := Estimate(context.Background(), bad); err == nil {
		t.Fatal("Estimate must reject invalid configurations")
	}
	bad2 := arch.Baseline()
	bad2.PsumBufBytes = 0 // non-integrated design without psum buffer
	if _, err := Estimate(context.Background(), bad2); err == nil {
		t.Fatal("Estimate must reject a non-integrated design without psum buffer")
	}
}

func TestUnitLookup(t *testing.T) {
	r := estimateOrDie(t, arch.Baseline())
	if _, ok := r.Unit("Psum buffer"); !ok {
		t.Error("Baseline must expose a separate psum buffer")
	}
	if _, ok := r.Unit("nonexistent"); ok {
		t.Error("unknown unit lookups must fail")
	}
	rOpt := estimateOrDie(t, arch.BufferOpt())
	if _, ok := rOpt.Unit("Psum buffer"); ok {
		t.Error("integrated designs must not expose a psum buffer")
	}
}

// Fig. 13: the estimator matches the die/post-layout references with the
// paper's error levels — microarchitecture 5.6 / 1.2 / 1.3 % and
// architecture 4.7 / 2.3 / 9.5 % for frequency / power / area.
func TestFig13Validation(t *testing.T) {
	rep := Validate()
	if len(rep.Items) != 11 {
		t.Fatalf("validation must cover 11 subjects/metrics, got %d", len(rep.Items))
	}
	check := func(level Level, metric Metric, want, tol float64) {
		t.Helper()
		got := rep.MeanError(level, metric) * 100
		if math.Abs(got-want) > tol {
			t.Errorf("level %v %s mean error = %.2f%%, want ≈%.1f%%", level, metric, got, want)
		}
	}
	check(Microarch, Frequency, 5.6, 0.8)
	check(Microarch, StaticPower, 1.2, 0.5)
	check(Microarch, Area, 1.3, 0.5)
	check(Arch, Frequency, 4.7, 0.8)
	check(Arch, StaticPower, 2.3, 0.8)
	check(Arch, Area, 9.5, 1.0)
	for _, it := range rep.Items {
		if e := it.RelError(); e > 0.12 {
			t.Errorf("%s %s validation error %.1f%% exceeds 12%%", it.Unit, it.Metric, e*100)
		}
	}
}

func TestPrototypeNPUFrequencyBoundedByMAC(t *testing.T) {
	p := EstimatePrototypeNPU(sfq.RSFQ)
	if p.Frequency <= 0 || p.Frequency > 60*sfq.GHz {
		t.Fatalf("prototype NPU frequency %.1f GHz implausible", p.Frequency/sfq.GHz)
	}
	if p.JJs < 10000 {
		t.Fatalf("prototype NPU JJ count %d too small for 4 MACs + buffers", p.JJs)
	}
}
