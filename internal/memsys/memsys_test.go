package memsys

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLargeTransfersApproachPeak(t *testing.T) {
	m := HBM2()
	// A 24 MB buffer fill must achieve >99% of peak — the regime in which
	// the simulators' flat-bandwidth abstraction is accurate.
	if eff := m.Efficiency(24 << 20); eff < 0.99 {
		t.Fatalf("24 MB transfer efficiency = %.3f, want > 0.99", eff)
	}
	// A single burst is overhead-dominated.
	if eff := m.Efficiency(256); eff > 0.05 {
		t.Fatalf("single-burst efficiency = %.3f, want overhead-dominated", eff)
	}
}

func TestKnee(t *testing.T) {
	m := HBM2()
	knee := m.KneeBytes()
	// 60 ns × 300 GB/s = 18 kB.
	if knee < 17000 || knee > 19000 {
		t.Fatalf("knee = %d bytes, want ≈18 kB", knee)
	}
	// Around the knee, efficiency is ≈50%.
	if eff := m.Efficiency(knee); math.Abs(eff-0.5) > 0.05 {
		t.Fatalf("efficiency at the knee = %.2f, want ≈0.5", eff)
	}
}

func TestBurstRounding(t *testing.T) {
	m := HBM2()
	// One byte still moves a full channel-granule.
	if m.TransferTime(1) != m.TransferTime(int64(m.Channels*m.BurstBytes)) {
		t.Fatal("sub-granule transfers must round up to the burst granule")
	}
	if m.TransferTime(0) != 0 {
		t.Fatal("zero bytes take zero time")
	}
}

// Property: efficiency is monotone non-decreasing across granule-aligned
// transfer sizes (within a granule, burst rounding makes it sawtoothed).
func TestEfficiencyMonotoneProperty(t *testing.T) {
	m := HBM2()
	granule := int64(m.Channels * m.BurstBytes)
	f := func(a, b uint16) bool {
		x := (int64(a) + 1) * granule
		y := (int64(b) + 1) * granule
		if x > y {
			x, y = y, x
		}
		return m.Efficiency(y) >= m.Efficiency(x)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
