package sfq

import (
	"maps"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Fatalf("%s: got %g, want 0", name, got)
		}
		return
	}
	if math.Abs(got-want)/math.Abs(want) > relTol {
		t.Fatalf("%s: got %g, want %g (tol %.1f%%)", name, got, want, relTol*100)
	}
}

// The AND and XOR rows of the paper's gate-parameter table (Fig. 10) are the
// calibration anchors for the whole gate level.
func TestPaperGateParameterTable(t *testing.T) {
	lib := NewLibrary(AIST10(), RSFQ)

	and := lib.Gate(AND)
	almost(t, "AND delay", and.Delay, 8.3*Picosecond, 0.001)
	almost(t, "AND static power", lib.StaticPower(AND), 3.6*Microwatt, 0.05)
	almost(t, "AND access energy", lib.AccessEnergy(AND), 1.4*Attojoule, 0.02)

	xor := lib.Gate(XOR)
	almost(t, "XOR delay", xor.Delay, 6.5*Picosecond, 0.001)
	almost(t, "XOR static power", lib.StaticPower(XOR), 3.0*Microwatt, 0.05)
	almost(t, "XOR access energy", lib.AccessEnergy(XOR), 1.4*Attojoule, 0.02)
}

func TestERSFQDerivation(t *testing.T) {
	r := NewLibrary(AIST10(), RSFQ)
	e := NewLibrary(AIST10(), ERSFQ)
	for k := range r.gates {
		// Same structure and timing.
		if r.Gate(k).Delay != e.Gate(k).Delay || r.Gate(k).Setup != e.Gate(k).Setup {
			t.Errorf("%s: ERSFQ timing must equal RSFQ", k)
		}
		if r.Gate(k).JJs != e.Gate(k).JJs {
			t.Errorf("%s: ERSFQ area (JJ count) must equal RSFQ", k)
		}
		// Zero static power, doubled access energy (Section IV-A1).
		if e.StaticPower(k) != 0 {
			t.Errorf("%s: ERSFQ static power = %g, want 0", k, e.StaticPower(k))
		}
		almost(t, string(k)+" ERSFQ energy", e.AccessEnergy(k), 2*r.AccessEnergy(k), 1e-9)
	}
}

func TestTechnologyString(t *testing.T) {
	if RSFQ.String() != "RSFQ" || ERSFQ.String() != "ERSFQ" {
		t.Fatalf("unexpected Technology strings %q %q", RSFQ, ERSFQ)
	}
	if Technology(9).String() != "Technology(9)" {
		t.Fatalf("unexpected fallback string %q", Technology(9))
	}
}

func TestScaleAreaTo28nm(t *testing.T) {
	p := AIST10()
	f := p.ScaleAreaTo(28e-9)
	almost(t, "scale factor", f, (0.028)*(0.028), 1e-9)
	// Scaling must shrink a 1.0 µm layout by ~1275×.
	if f >= 1 {
		t.Fatalf("scaling to a finer process must shrink area, got factor %g", f)
	}
}

func TestUnknownGatePanics(t *testing.T) {
	lib := NewLibrary(AIST10(), RSFQ)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown gate kind")
		}
	}()
	lib.Gate(GateKind("BOGUS"))
}

func TestWireCellsAreUnclocked(t *testing.T) {
	lib := NewLibrary(AIST10(), RSFQ)
	for _, k := range []GateKind{JTL, Splitter, Merger} {
		if lib.Gate(k).Clocked {
			t.Errorf("%s must be an unclocked wire cell", k)
		}
	}
	for _, k := range []GateKind{DFF, AND, XOR, FA, NDRO} {
		if !lib.Gate(k).Clocked {
			t.Errorf("%s must be clocked (every SFQ logic gate latches)", k)
		}
	}
}

func TestInventoryAccounting(t *testing.T) {
	lib := NewLibrary(AIST10(), RSFQ)
	inv := Inventory{}
	inv.AddGate(DFF, 10)
	inv.AddGate(Splitter, 10)
	sub := Inventory{AND: 2, XOR: 1}
	inv.Add(sub, 3)

	if got := inv.Gates(); got != 29 {
		t.Fatalf("Gates() = %d, want 29", got)
	}
	wantJJ := 10*6 + 10*3 + 6*20 + 3*17
	if got := inv.JJs(lib); got != wantJJ {
		t.Fatalf("JJs() = %d, want %d", got, wantJJ)
	}
	almost(t, "static", inv.StaticPower(lib),
		float64(wantJJ)*AIST10().StaticPowerPerJJ(RSFQ), 1e-9)
	if inv.Area(lib) <= 0 || inv.AccessEnergy(lib) <= 0 {
		t.Fatal("area and energy must be positive")
	}
}

// Property: inventory accounting is linear — merging two inventories adds
// their JJ counts, areas, static powers and energies exactly.
func TestInventoryLinearityProperty(t *testing.T) {
	lib := NewLibrary(AIST10(), RSFQ)
	var kinds []GateKind
	for k := range lib.gates {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	f := func(a, b [8]uint8) bool {
		ia, ib := Inventory{}, Inventory{}
		for i := 0; i < 8; i++ {
			ia.AddGate(kinds[i%len(kinds)], int(a[i]))
			ib.AddGate(kinds[i%len(kinds)], int(b[i]))
		}
		merged := maps.Clone(ia)
		merged.Add(ib, 1)
		okJJ := merged.JJs(lib) == ia.JJs(lib)+ib.JJs(lib)
		okGates := merged.Gates() == ia.Gates()+ib.Gates()
		okArea := math.Abs(merged.Area(lib)-(ia.Area(lib)+ib.Area(lib))) < 1e-18
		okPow := math.Abs(merged.StaticPower(lib)-(ia.StaticPower(lib)+ib.StaticPower(lib))) < 1e-15
		return okJJ && okGates && okArea && okPow
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: multiplicity scaling — Add with n behaves as n separate adds.
func TestInventoryMultiplicityProperty(t *testing.T) {
	f := func(n uint8, dff, and uint8) bool {
		base := Inventory{DFF: int(dff), AND: int(and)}
		viaN := Inventory{}
		viaN.Add(base, int(n))
		viaLoop := Inventory{}
		for i := 0; i < int(n); i++ {
			viaLoop.Add(base, 1)
		}
		return viaN[DFF] == viaLoop[DFF] && viaN[AND] == viaLoop[AND]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStaticPowerPerJJ(t *testing.T) {
	p := AIST10()
	// 2.6 mV × 69.2 µA ≈ 0.18 µW per junction under RSFQ biasing.
	almost(t, "per-JJ static", p.StaticPowerPerJJ(RSFQ), 0.173*Microwatt, 0.01)
	if p.StaticPowerPerJJ(ERSFQ) != 0 {
		t.Fatal("ERSFQ must have zero static power per JJ")
	}
}

// The paper's footnote 2: frequency scales linearly with the JJ feature
// size down to ~200 nm — a 0.5 µm library is twice as fast, and scaling
// below the floor clamps.
func TestProcessScaling(t *testing.T) {
	base := NewLibrary(AIST10(), RSFQ)
	half := NewLibrary(AIST10().ScaledTo(0.5*Micrometre), RSFQ)
	for k := range base.gates {
		if g := half.Gate(k); math.Abs(g.Delay-0.5*base.Gate(k).Delay) > 1e-18 {
			t.Fatalf("%s: delay must halve at 0.5 µm", k)
		}
	}
	// Energy, area and static power shrink too.
	if half.AccessEnergy(DFF) >= base.AccessEnergy(DFF) {
		t.Error("scaled process must reduce switching energy")
	}
	if half.Area(DFF) >= base.Area(DFF)/2 {
		t.Error("area must shrink quadratically")
	}
	// Clamping at the 200 nm validity floor.
	deep := AIST10().ScaledTo(10e-9)
	if deep.FeatureSize != ScalingFloor {
		t.Fatalf("scaling must clamp at %g, got %g", ScalingFloor, deep.FeatureSize)
	}
}
