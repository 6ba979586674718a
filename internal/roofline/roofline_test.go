package roofline

import (
	"testing"
	"testing/quick"

	"supernpu/internal/workload"
)

func baselineModel() Model {
	return Model{PeakMACs: 3366e12, Bandwidth: 300e9}
}

// Fig. 17: at a single batch, the workloads' roofline utilization on the
// Baseline is below 2% on average — the computing units are fast but idle.
func TestFig17SingleBatchUtilizationBelow2Percent(t *testing.T) {
	m := baselineModel()
	sum := 0.0
	for _, net := range workload.All() {
		u := m.Utilization(Intensity(net, 1))
		if u >= 0.03 {
			t.Errorf("%s: single-batch roofline utilization = %.2f%%, want < 3%%", net.Name, u*100)
		}
		if u <= 0 {
			t.Errorf("%s: utilization must be positive", net.Name)
		}
		sum += u
	}
	if avg := sum / 6; avg >= 0.02 {
		t.Errorf("average roofline utilization = %.2f%%, want < 2%% (Fig. 17)", avg*100)
	}
}

func TestRidgePoint(t *testing.T) {
	m := baselineModel()
	ridge := m.PeakMACs / m.Bandwidth
	// 3366 TMAC/s over 300 GB/s = 11220 MAC/byte.
	if ridge < 11000 || ridge > 11500 {
		t.Fatalf("ridge = %.0f MAC/byte, want ≈11220", ridge)
	}
	if m.Attainable(ridge) != m.PeakMACs {
		t.Fatal("at the ridge, attainable must equal peak")
	}
	if m.Attainable(ridge/2) >= m.PeakMACs {
		t.Fatal("below the ridge, attainable must be bandwidth-bound")
	}
}

func TestIntensityGrowsWithBatch(t *testing.T) {
	net := workload.ResNet50()
	i1, i8 := Intensity(net, 1), Intensity(net, 8)
	if i8 != 8*i1 {
		t.Fatalf("intensity must scale linearly with batch: %g vs %g", i1, i8)
	}
	empty := workload.Network{Name: "pool-only", Layers: nil}
	if Intensity(empty, 1) != 0 {
		t.Fatal("zero-weight guard failed")
	}
}

func TestMemoryVsComputeBound(t *testing.T) {
	m := baselineModel()
	low := m.Attainable(1) // 1 MAC/byte: deep in the memory-bound region
	if low != m.Bandwidth {
		t.Fatalf("memory-bound attainable = %g, want bandwidth-limited %g", low, m.Bandwidth)
	}
	if m.Attainable(1e9) != m.PeakMACs {
		t.Fatal("compute-bound attainable must clip at peak")
	}
}

// Property: attainable performance is monotone in intensity and never
// exceeds the peak.
func TestRooflineMonotonicityProperty(t *testing.T) {
	m := baselineModel()
	f := func(a, b uint32) bool {
		x, y := float64(a), float64(b)
		if x > y {
			x, y = y, x
		}
		return m.Attainable(x) <= m.Attainable(y)+1e-6 && m.Attainable(y) <= m.PeakMACs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
