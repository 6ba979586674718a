package supernpu

import (
	"context"
	"math"
	"testing"
)

// TestReproductionRegression pins the headline numbers of EXPERIMENTS.md so
// that model changes cannot silently drift the reproduction. Tolerances are
// tight around the currently measured values (not the paper's): a failure
// here means the repository's own results moved.
func TestReproductionRegression(t *testing.T) {
	within := func(name string, got, want, relTol float64) {
		t.Helper()
		if math.Abs(got-want)/want > relTol {
			t.Errorf("%s = %.4g, pinned at %.4g (±%.0f%%) — EXPERIMENTS.md may need updating",
				name, got, want, relTol*100)
		}
	}

	// Per-workload SuperNPU speedups over the TPU (Fig. 23 column).
	pinned := map[string]float64{
		"AlexNet":    12.89,
		"FasterRCNN": 17.16,
		"GoogLeNet":  21.20,
		"MobileNet":  62.46,
		"ResNet50":   19.10,
		"VGG16":      17.00,
	}
	logSum := 0.0
	for name, want := range pinned {
		net, err := WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Speedup(context.Background(), SuperNPU(), net)
		if err != nil {
			t.Fatal(err)
		}
		within("SuperNPU speedup on "+name, got, want, 0.03)
		logSum += math.Log(got)
	}
	within("SuperNPU geomean speedup", math.Exp(logSum/6), 21.37, 0.03)

	// Table I architecture figures.
	est, err := EstimateDesign(context.Background(), SuperNPU())
	if err != nil {
		t.Fatal(err)
	}
	within("SuperNPU clock (GHz)", est.Frequency/1e9, 52.63, 0.01)
	within("SuperNPU area @28nm (mm²)", est.Area28nm/1e-6, 302.6, 0.01)
	within("SuperNPU RSFQ static (W)", est.StaticPower, 990.5, 0.01)
	within("SuperNPU peak (TMAC/s)", est.PeakMACs/1e12, 862.3, 0.01)

	// Table III power of the ERSFQ design on ResNet-50.
	net, _ := WorkloadByName("ResNet50")
	ersfq, err := DesignByName("ERSFQ-SuperNPU")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(context.Background(), ersfq, net, 0)
	if err != nil {
		t.Fatal(err)
	}
	within("ERSFQ-SuperNPU chip power (W)", ev.ChipPower, 2.05, 0.05)
}
