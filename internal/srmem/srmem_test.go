package srmem

import (
	"math"
	"testing"

	"supernpu/internal/sfq"
)

func lib() *sfq.Library { return sfq.NewLibrary(sfq.AIST10(), sfq.RSFQ) }

const mb = 1 << 20

// The paper's Fig. 16 example: moving partial sums between the 8 MB ofmap
// and 8 MB psum buffers (256 B/cycle each) costs 65,536 cycles in the
// Baseline — 16 MB ÷ 256 B/cycle.
func TestFig16InterBufferMoveCost(t *testing.T) {
	ofmap := Config{WidthBytes: 256, CapacityBytes: 8 * mb, Chunks: 1}
	psum := Config{WidthBytes: 256, CapacityBytes: 8 * mb, Chunks: 1}
	if got := ofmap.InterBufferMoveCycles(psum); got != 65536 {
		t.Fatalf("inter-buffer move = %d cycles, want 65536", got)
	}
}

func TestDivisionShortensRecirculation(t *testing.T) {
	base := Config{WidthBytes: 256, CapacityBytes: 8 * mb, Chunks: 1}
	div := base
	div.Chunks = 64
	if base.RecirculateCycles() != 32768 {
		t.Fatalf("monolithic recirculation = %d, want 32768", base.RecirculateCycles())
	}
	if got := div.RecirculateCycles(); got != 512 {
		t.Fatalf("divided recirculation = %d, want 512", got)
	}
}

func TestValidate(t *testing.T) {
	good := Config{WidthBytes: 64, CapacityBytes: mb, Chunks: 16}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{
		{WidthBytes: 0, CapacityBytes: mb, Chunks: 1},
		{WidthBytes: 64, CapacityBytes: 0, Chunks: 1},
		{WidthBytes: 64, CapacityBytes: mb, Chunks: 0},
		{WidthBytes: 64, CapacityBytes: 128, Chunks: 64}, // chunks too fine
	} {
		if bad.Validate() == nil {
			t.Errorf("Validate must reject %+v", bad)
		}
	}
}

// Shift-register buffers are feedback loops → counter-flow clocked at
// ~71 GHz (Fig. 7c), still above the 52.6 GHz NPU clock.
func TestCounterFlowFrequency(t *testing.T) {
	f := Frequency(lib()) / sfq.GHz
	if math.Abs(f-71) > 3 {
		t.Fatalf("buffer frequency = %.1f GHz, want ~71", f)
	}
}

func TestDivisionAreaOverhead(t *testing.T) {
	l := lib()
	mono := Config{WidthBytes: 256, CapacityBytes: 12 * mb, Chunks: 1}
	div64 := mono
	div64.Chunks = 64
	div4096 := mono
	div4096.Chunks = 4096

	a1, a64, a4096 := mono.Inventory().Area(l), div64.Inventory().Area(l), div4096.Inventory().Area(l)
	if !(a1 < a64 && a64 < a4096) {
		t.Fatal("area must grow with division degree")
	}
	// Division 64 is cheap (a few percent); 4096 is not (Fig. 20).
	if (a64-a1)/a1 > 0.05 {
		t.Errorf("division 64 overhead = %.1f%%, want < 5%%", (a64-a1)/a1*100)
	}
	if (a4096-a1)/a1 < 0.10 {
		t.Errorf("division 4096 overhead = %.1f%%, want noticeable (> 10%%)", (a4096-a1)/a1*100)
	}
}

func TestChunkShiftEnergyShrinksWithDivision(t *testing.T) {
	l := lib()
	mono := Config{WidthBytes: 256, CapacityBytes: 8 * mb, Chunks: 1}
	div := mono
	div.Chunks = 64
	em, ed := mono.ChunkShiftEnergy(l), div.ChunkShiftEnergy(l)
	if math.Abs(em/ed-64) > 0.01 {
		t.Fatalf("64-way division must cut per-access energy 64×, got %.2f×", em/ed)
	}
}
