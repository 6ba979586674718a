package netunit

import (
	"testing"
	"testing/quick"

	"supernpu/internal/sfq"
)

func lib() *sfq.Library { return sfq.NewLibrary(sfq.AIST10(), sfq.RSFQ) }

// Fig. 5(a): the 2D splitter tree's critical-path delay grows with the PE
// array width and exceeds 800 ps at 64×64; the other designs stay flat.
func TestFig5CriticalPathDelay(t *testing.T) {
	l := lib()
	cfg := func(w int) Config { return Config{Width: w, Bits: 8} }

	d64 := CriticalPathDelay(SplitterTree2D, cfg(64), l)
	if d64 < 800*sfq.Picosecond {
		t.Errorf("2D tree delay at width 64 = %.0f ps, want > 800 ps", d64/sfq.Picosecond)
	}

	// Monotone growth for the 2D tree.
	prev := 0.0
	for _, w := range []int{4, 16, 64} {
		d := CriticalPathDelay(SplitterTree2D, cfg(w), l)
		if d <= prev {
			t.Errorf("2D tree delay must grow with width (w=%d: %.0f ps)", w, d/sfq.Picosecond)
		}
		prev = d
	}

	// The 1D tree and systolic array have near-flat, far smaller delay.
	for _, d := range []Design{SplitterTree1D, Systolic2D} {
		small := CriticalPathDelay(d, cfg(4), l)
		big := CriticalPathDelay(d, cfg(64), l)
		if big > 30*sfq.Picosecond {
			t.Errorf("%s delay at width 64 = %.1f ps, want bounded (<30 ps)", d, big/sfq.Picosecond)
		}
		if big > 4*small {
			t.Errorf("%s delay must stay near-flat (4→%.1fps, 64→%.1fps)",
				d, small/sfq.Picosecond, big/sfq.Picosecond)
		}
	}

	// The systolic array is the fastest design at every width (the basis
	// of the paper's design choice).
	for _, w := range []int{4, 8, 16, 32, 64} {
		sys := CriticalPathDelay(Systolic2D, cfg(w), l)
		for _, d := range []Design{SplitterTree2D, SplitterTree1D} {
			if CriticalPathDelay(d, cfg(w), l) < sys {
				t.Errorf("width %d: %s must not beat the systolic array", w, d)
			}
		}
	}
}

// Fig. 5(b): the systolic array has the smallest area; the splitter trees
// pay quadratic wiring cost.
func TestFig5Area(t *testing.T) {
	l := lib()
	for _, w := range []int{4, 16, 64} {
		cfg := Config{Width: w, Bits: 8}
		sys := Area(Systolic2D, cfg, l)
		t1d := Area(SplitterTree1D, cfg, l)
		t2d := Area(SplitterTree2D, cfg, l)
		if !(sys < t1d && t1d < t2d) {
			t.Errorf("width %d: want area systolic < 1D tree < 2D tree, got %.3g / %.3g / %.3g mm²",
				w, sys/sfq.SquareMillimetre, t1d/sfq.SquareMillimetre, t2d/sfq.SquareMillimetre)
		}
	}
	// Trees scale ~quadratically, systolic ~linearly: at width 64 the gap
	// must be over an order of magnitude.
	cfg := Config{Width: 64, Bits: 8}
	if Area(SplitterTree2D, cfg, l) < 10*Area(Systolic2D, cfg, l) {
		t.Error("2D tree area must dwarf systolic area at width 64")
	}
}

func TestMaxFrequencyInverse(t *testing.T) {
	l := lib()
	cfg := Config{Width: 16, Bits: 8}
	f := MaxFrequency(Systolic2D, cfg, l)
	d := CriticalPathDelay(Systolic2D, cfg, l)
	if f*d < 0.999 || f*d > 1.001 {
		t.Fatalf("MaxFrequency must be 1/delay, got product %g", f*d)
	}
}

func TestSystolicPerPE(t *testing.T) {
	inv := SystolicPerPE(8)
	if inv[sfq.DFF] != 16 || inv[sfq.Splitter] != 16 {
		t.Fatalf("8-bit systolic branch: want 16 DFF + 16 splitters per PE, got %v", inv)
	}
}

func TestDesignString(t *testing.T) {
	want := map[Design]string{
		SplitterTree2D: "2D splitter tree",
		SplitterTree1D: "1D splitter tree",
		Systolic2D:     "2D systolic array",
		Design(7):      "Design(7)",
	}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("String() = %q, want %q", d.String(), s)
		}
	}
	if len(Designs()) != 3 {
		t.Fatal("Designs() must list the three candidates")
	}
}

// Property: area and delay are monotone non-decreasing in array width for
// every design.
func TestMonotonicityProperty(t *testing.T) {
	l := lib()
	f := func(w8 uint8, dSel uint8) bool {
		w := 2 + int(w8)%100
		d := Designs()[int(dSel)%3]
		a, b := Config{Width: w, Bits: 8}, Config{Width: w + 1, Bits: 8}
		return Area(d, b, l) >= Area(d, a, l) &&
			CriticalPathDelay(d, b, l) >= CriticalPathDelay(d, a, l)-1e-18
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: doubling the bus width scales tree areas exactly 2× (all cells
// are per-bit replicated).
func TestBusWidthLinearityProperty(t *testing.T) {
	l := lib()
	f := func(w8, dSel uint8) bool {
		w := 2 + int(w8)%64
		d := Designs()[int(dSel)%3]
		a1 := Area(d, Config{Width: w, Bits: 4}, l)
		a2 := Area(d, Config{Width: w, Bits: 8}, l)
		diff := a2 - 2*a1
		return diff < 1e-15 && diff > -1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
