package pe

import (
	"math"
	"testing"
	"testing/quick"

	"supernpu/internal/sfq"
)

func lib() *sfq.Library { return sfq.NewLibrary(sfq.AIST10(), sfq.RSFQ) }

// The paper's 8-bit PE has 15 pipeline stages (Section III-C).
func TestPipelineStages(t *testing.T) {
	if got := Default8Bit(1).PipelineStages(); got != 15 {
		t.Fatalf("8-bit PE pipeline stages = %d, want 15", got)
	}
}

// The weight-stationary PE must hit the paper's ~52.6 GHz NPU clock.
func TestWSFrequency(t *testing.T) {
	f := Default8Bit(1).Frequency(lib()) / sfq.GHz
	if math.Abs(f-52.6) > 1.0 {
		t.Fatalf("WS PE frequency = %.2f GHz, want ~52.6", f)
	}
}

// Fig. 6/7: the OS PE's feedback loop forces counter-flow clocking and
// roughly halves the clock frequency — the reason the paper picks WS.
func TestOSFeedbackPenalty(t *testing.T) {
	l := lib()
	ws := Default8Bit(1)
	os := ws
	os.Dataflow = OutputStationary
	fw, fo := ws.Frequency(l), os.Frequency(l)
	if fo >= fw {
		t.Fatalf("OS (%.1f GHz) must be slower than WS (%.1f GHz)", fo/sfq.GHz, fw/sfq.GHz)
	}
	ratio := fw / fo
	if ratio < 1.5 || ratio > 3.0 {
		t.Fatalf("feedback penalty ratio = %.2f, want roughly 2× (1.5..3)", ratio)
	}
}

func TestInputStationaryMatchesWSStructure(t *testing.T) {
	// IS has "almost the same hardware structure as the PE with WS"
	// (Section III-B): same feedback-free clocking, same frequency.
	l := lib()
	ws, is := Default8Bit(1), Default8Bit(1)
	is.Dataflow = InputStationary
	if ws.Frequency(l) != is.Frequency(l) {
		t.Fatal("IS and WS PEs must share the same frequency model")
	}
	if ws.Dataflow.HasFeedback() || is.Dataflow.HasFeedback() {
		t.Fatal("WS/IS must be feedback-free")
	}
	if !OutputStationary.HasFeedback() {
		t.Fatal("OS must have feedback")
	}
}

// The PE's junction count must land in the regime of real bit-parallel RSFQ
// MAC layouts (tens of thousands of JJs; the fabricated 4-bit MAC of
// Fig. 12(a) fills several mm²).
func TestPEJJBudget(t *testing.T) {
	jj := Default8Bit(1).Inventory().JJs(lib())
	if jj < 15000 || jj > 40000 {
		t.Fatalf("8-bit PE JJ count = %d, want 15k..40k", jj)
	}
}

func TestRegistersGrowInventory(t *testing.T) {
	l := lib()
	one := Default8Bit(1).Inventory()
	eight := Default8Bit(8).Inventory()
	if eight[sfq.NDRO] != 8*one[sfq.NDRO] {
		t.Fatalf("NDRO bits must scale with registers: %d vs %d", eight[sfq.NDRO], one[sfq.NDRO])
	}
	if eight.JJs(l) <= one.JJs(l) {
		t.Fatal("more registers must cost more junctions")
	}
	// But registers are cheap relative to the MAC: SuperNPU's 8 registers
	// add only a few percent of PE area (Table I: 298 → 299 mm²).
	growth := float64(eight.JJs(l))/float64(one.JJs(l)) - 1
	if growth > 0.10 {
		t.Fatalf("8 registers grow the PE by %.1f%%, want < 10%%", growth*100)
	}
}

func TestMACEnergyPositiveAndERSFQDoubled(t *testing.T) {
	r := Default8Bit(1).MACEnergy(sfq.NewLibrary(sfq.AIST10(), sfq.RSFQ))
	e := Default8Bit(1).MACEnergy(sfq.NewLibrary(sfq.AIST10(), sfq.ERSFQ))
	if r <= 0 {
		t.Fatal("MAC energy must be positive")
	}
	if math.Abs(e-2*r)/r > 1e-9 {
		t.Fatalf("ERSFQ MAC energy %.3g must be 2× RSFQ %.3g", e, r)
	}
}

func TestDataflowString(t *testing.T) {
	for d, want := range map[Dataflow]string{
		WeightStationary: "weight-stationary",
		OutputStationary: "output-stationary",
		InputStationary:  "input-stationary",
		Dataflow(9):      "Dataflow(9)",
	} {
		if d.String() != want {
			t.Errorf("String() = %q, want %q", d.String(), want)
		}
	}
}

func TestMACFunctional(t *testing.T) {
	m := NewMAC(Default8Bit(4))
	m.LoadWeight(0, 3)
	m.LoadWeight(1, -5)
	m.LoadWeight(3, 127)
	if m.weights[1] != -5 {
		t.Fatal("weight readback failed")
	}
	if got := m.Step(0, 10, 100); got != 130 {
		t.Fatalf("3·10+100 = %d, want 130", got)
	}
	if got := m.Step(1, 2, 0); got != -10 {
		t.Fatalf("-5·2 = %d, want -10", got)
	}
	if got := m.Step(3, -128, 0); got != -16256 {
		t.Fatalf("127·-128 = %d, want -16256", got)
	}
	if got := m.Step(2, 99, 7); got != 7 {
		t.Fatalf("cleared register must multiply as 0, got %d", got)
	}
}

// Property: the functional MAC is exact integer arithmetic — it matches
// int32 reference multiplication for all int8 operands, and never loses the
// incoming psum.
func TestMACArithmeticProperty(t *testing.T) {
	m := NewMAC(Default8Bit(1))
	f := func(w, x int8, p int16) bool {
		m.LoadWeight(0, w)
		return m.Step(0, x, int32(p)) == int32(p)+int32(w)*int32(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: PE inventory grows monotonically with operand width.
func TestInventoryWidthMonotonicProperty(t *testing.T) {
	l := lib()
	f := func(b8 uint8) bool {
		b := 2 + int(b8)%14
		small := Config{Bits: b, AccBits: 3 * b, Registers: 1, Dataflow: WeightStationary}
		big := Config{Bits: b + 1, AccBits: 3 * (b + 1), Registers: 1, Dataflow: WeightStationary}
		return big.Inventory().JJs(l) > small.Inventory().JJs(l) &&
			big.PipelineStages() >= small.PipelineStages()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
