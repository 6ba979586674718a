package faultinject

import (
	"math"
	"strings"
	"testing"
)

func TestNilAndZeroModelsAreDisabled(t *testing.T) {
	var nilModel *Model
	if nilModel.Enabled() {
		t.Fatal("nil model reports enabled")
	}
	if (&Model{Seed: 42}).Enabled() {
		t.Fatal("zero-rate model reports enabled")
	}
	if got := nilModel.IcScale("x"); got != 1 {
		t.Fatalf("nil IcScale = %g, want 1", got)
	}
	if got := nilModel.DelayScale("x"); got != 1 {
		t.Fatalf("nil DelayScale = %g, want 1", got)
	}
	if got := nilModel.Count(0.5, 100, "x"); got != 0 {
		t.Fatalf("nil Count = %d, want 0", got)
	}
	if nilModel.FailsSimulation("x") {
		t.Fatal("nil model fails simulations")
	}
}

func TestDrawsAreDeterministicPerSite(t *testing.T) {
	m := &Model{Seed: 7, IcSpread: 0.05}
	for _, site := range []string{"a", "b", "jsim/jtl/3", "sfq/AND"} {
		if m.Uniform(site) != m.Uniform(site) {
			t.Fatalf("Uniform(%q) not deterministic", site)
		}
		if m.IcScale(site) != m.IcScale(site) {
			t.Fatalf("IcScale(%q) not deterministic", site)
		}
	}
	if m.Uniform("a") == m.Uniform("b") {
		t.Fatal("distinct sites drew the same uniform")
	}
	other := &Model{Seed: 8, IcSpread: 0.05}
	if m.IcScale("a") == other.IcScale("a") {
		t.Fatal("distinct seeds drew the same Ic scale")
	}
}

func TestIcScaleIsClampedAndCentred(t *testing.T) {
	m := &Model{Seed: 3, IcSpread: 0.5} // huge sigma to exercise the clamp
	sum := 0.0
	const n = 2000
	for i := 0; i < n; i++ {
		s := m.IcScale("site" + string(rune('a'+i%26)) + "/" + string(rune('0'+i%10)) + "/" + itoa(i))
		if s < 1-icScaleClamp-1e-12 || s > 1+icScaleClamp+1e-12 {
			t.Fatalf("IcScale %g escapes the clamp", s)
		}
		sum += s
	}
	if mean := sum / n; math.Abs(mean-1) > 0.05 {
		t.Fatalf("IcScale mean %g far from 1", mean)
	}
}

func itoa(i int) string {
	return string(rune('A' + i%26))
}

func TestUniformLooksUniform(t *testing.T) {
	m := &Model{Seed: 11, IcSpread: 1}
	var buckets [10]int
	const n = 10000
	for i := 0; i < n; i++ {
		u := m.Uniform("u/" + itoa(i) + itoa(i/26) + itoa(i/676) + string(rune(i%256)))
		if u < 0 || u >= 1 {
			t.Fatalf("Uniform out of range: %g", u)
		}
		buckets[int(u*10)]++
	}
	for b, c := range buckets {
		if c < n/10-n/25 || c > n/10+n/25 {
			t.Fatalf("bucket %d holds %d of %d draws: not uniform", b, c, n)
		}
	}
}

func TestCountMatchesExpectation(t *testing.T) {
	m := &Model{Seed: 5, PulseDrop: 1}
	if got := m.Count(0, 100, "x"); got != 0 {
		t.Fatalf("Count(0) = %d", got)
	}
	if got := m.Count(1, 100, "x"); got != 100 {
		t.Fatalf("Count(1) = %d", got)
	}
	if got := m.Count(2, 100, "x"); got != 100 {
		t.Fatalf("Count(2) = %d, want clamped to n", got)
	}
	// Expectation 12.5 must round to 12 or 13, deterministically.
	c := m.Count(0.125, 100, "site")
	if c != 12 && c != 13 {
		t.Fatalf("Count(0.125, 100) = %d, want 12 or 13", c)
	}
	if c2 := m.Count(0.125, 100, "site"); c2 != c {
		t.Fatalf("Count not deterministic: %d then %d", c, c2)
	}
}

func TestFailsSimulationRespectsRate(t *testing.T) {
	always := &Model{Seed: 9, SimFail: 1}
	if !always.FailsSimulation("any") {
		t.Fatal("SimFail=1 did not fail")
	}
	never := &Model{Seed: 9, SimFail: 0, IcSpread: 0.1}
	if never.FailsSimulation("any") {
		t.Fatal("SimFail=0 failed")
	}
}

func TestFaultErrorTextIsStable(t *testing.T) {
	e := &FaultError{Site: "npusim/SuperNPU/ResNet50/30"}
	if e.Error() != (&FaultError{Site: "npusim/SuperNPU/ResNet50/30"}).Error() {
		t.Fatal("FaultError text not stable")
	}
}

func TestValidate(t *testing.T) {
	var nilModel *Model
	if err := nilModel.Validate(); err != nil {
		t.Errorf("nil model: %v", err)
	}
	cases := []struct {
		name string
		m    Model
		bad  string // substring of the error, "" when valid
	}{
		{"zero", Model{Seed: 42}, ""},
		{"mild", Model{Seed: 7, IcSpread: 0.03, PulseDrop: 1e-7, BitFlip: 1e-9, MarginErosion: 0.05}, ""},
		{"certain failure", Model{PulseDrop: 1, BitFlip: 1, SimFail: 1}, ""},
		{"large spread and erosion", Model{IcSpread: 2, MarginErosion: 3}, ""},
		{"negative erosion", Model{MarginErosion: -1}, "MarginErosion"},
		{"negative spread", Model{IcSpread: -0.01}, "IcSpread"},
		{"NaN spread", Model{IcSpread: math.NaN()}, "IcSpread"},
		{"infinite erosion", Model{MarginErosion: math.Inf(1)}, "MarginErosion"},
		{"negative drop", Model{PulseDrop: -1e-9}, "PulseDrop"},
		{"drop above 1", Model{PulseDrop: 1.5}, "PulseDrop"},
		{"NaN flip", Model{BitFlip: math.NaN()}, "BitFlip"},
		{"flip above 1", Model{BitFlip: 2}, "BitFlip"},
		{"sim fail above 1", Model{SimFail: 1.0000001}, "SimFail"},
		{"negative infinite sim fail", Model{SimFail: math.Inf(-1)}, "SimFail"},
	}
	for _, c := range cases {
		err := c.m.Validate()
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%s: %v, want valid", c.name, err)
		case c.bad != "" && (err == nil || !strings.Contains(err.Error(), c.bad)):
			t.Errorf("%s: got %v, want an error naming %s", c.name, err, c.bad)
		}
	}
}
