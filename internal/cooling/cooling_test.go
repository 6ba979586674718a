package cooling

import (
	"math"
	"testing"
	"testing/quick"
)

// Table III arithmetic reproduced end to end: with the paper's SuperNPU
// speedup (23× a 40 W TPU) the ERSFQ design at 1.9 W reaches ~490× perf/W
// with free cooling and ~1.2× with the 400× cooling cost; RSFQ at 964 W is
// ~0.95× and ~0.002×.
func TestTable3Arithmetic(t *testing.T) {

	cases := []struct {
		name     string
		power    float64
		scenario Scenario
		want     float64
		tol      float64
	}{
		{"ERSFQ w/o cooling", 1.9, FreeCooling, 484, 10},
		{"ERSFQ w/ cooling", 1.9, FullCooling, 1.21, 0.05},
		{"RSFQ w/o cooling", 964, FreeCooling, 0.954, 0.02},
		{"RSFQ w/ cooling", 964, FullCooling, 0.00239, 0.0002},
	}
	for _, c := range cases {
		_, got := RelativePerfPerWatt(c.scenario, c.power, 23, 40)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%s: perf/W = %.4g× TPU, want %.4g", c.name, got, c.want)
		}
	}
}

func TestWallPower(t *testing.T) {
	if WallPower(1.9) != 760 {
		t.Fatalf("WallPower(1.9) = %g, want 760", WallPower(1.9))
	}
}

func TestScenarioString(t *testing.T) {
	if FreeCooling.String() != "w/o cooling cost" || FullCooling.String() != "w/ cooling cost" {
		t.Fatal("unexpected scenario strings")
	}
}

func TestZeroPowerGuards(t *testing.T) {
	if charged, rel := RelativePerfPerWatt(FreeCooling, 0, 23, 40); charged != 0 || rel != 0 {
		t.Fatalf("zero power: charged %g, perf/W %g; want 0 and 0, not +Inf", charged, rel)
	}
	if _, rel := RelativePerfPerWatt(FreeCooling, 10, 23, 0); rel != 0 {
		t.Fatalf("relative to a zero-power reference: %g, want 0", rel)
	}
}

// Property: cooling always costs exactly 400× and never changes ordering.
func TestCoolingOrderInvarianceProperty(t *testing.T) {
	f := func(p1, p2 uint16, s1, s2 uint32) bool {
		pa, pb := float64(p1)+1, float64(p2)+1
		sa, sb := float64(s1)+1, float64(s2)+1
		ca, ra := RelativePerfPerWatt(FreeCooling, pa, sa, 40)
		cb, rb := RelativePerfPerWatt(FreeCooling, pb, sb, 40)
		caFull, raFull := RelativePerfPerWatt(FullCooling, pa, sa, 40)
		_, rbFull := RelativePerfPerWatt(FullCooling, pb, sb, 40)
		// 400× scaling.
		if math.Abs(caFull-400*ca) > 1e-9 || cb != pb {
			return false
		}
		// Order preservation.
		return (ra > rb) == (raFull > rbFull)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
