package core

import (
	"context"
	"math"
	"testing"

	"supernpu/internal/arch"
	"supernpu/internal/scalesim"
	"supernpu/internal/workload"
)

func TestDesignPointsOrder(t *testing.T) {
	want := []string{"TPU", "Baseline", "Buffer opt.", "Resource opt.", "SuperNPU"}
	ds := DesignPoints()
	if len(ds) != len(want) {
		t.Fatalf("got %d designs, want %d", len(ds), len(want))
	}
	for i, d := range ds {
		if d.Name() != want[i] {
			t.Errorf("design %d = %q, want %q", i, d.Name(), want[i])
		}
	}
	if ds[0].Platform != CMOS || ds[1].Platform != SFQ {
		t.Error("platform assignment wrong")
	}
}

func TestEvaluateBothPlatforms(t *testing.T) {
	net := workload.ResNet50()
	for _, d := range DesignPoints() {
		ev, err := Evaluate(context.Background(), d, net, 0)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if ev.Throughput <= 0 || ev.Time <= 0 || ev.Batch < 1 {
			t.Errorf("%s: implausible evaluation %+v", d.Name(), ev)
		}
		if (ev.SFQReport == nil) == (ev.CMOSReport == nil) {
			t.Errorf("%s: exactly one platform report must be set", d.Name())
		}
		if ev.ChipPower <= 0 {
			t.Errorf("%s: chip power must be positive", d.Name())
		}
	}
}

func TestEvaluateUnknownPlatform(t *testing.T) {
	if _, err := Evaluate(context.Background(), Design{Platform: Platform(9)}, workload.VGG16(), 1); err == nil {
		t.Fatal("unknown platform must error")
	}
}

// The headline result: SuperNPU outperforms the TPU by roughly 23× on
// average, and every optimisation step moves in the paper's direction.
func TestHeadlineSpeedups(t *testing.T) {
	var gmBase, gmSuper float64 = 1, 1
	for _, net := range workload.All() {
		sBase, err := Speedup(context.Background(), SFQDesign(arch.Baseline()), net)
		if err != nil {
			t.Fatal(err)
		}
		sSuper, err := Speedup(context.Background(), SFQDesign(arch.SuperNPU()), net)
		if err != nil {
			t.Fatal(err)
		}
		gmBase *= sBase
		gmSuper *= sSuper
		if sSuper < 10 {
			t.Errorf("%s: SuperNPU speedup %.1f×, paper boosts every workload over 10×", net.Name, sSuper)
		}
		if sSuper <= sBase {
			t.Errorf("%s: SuperNPU must beat the Baseline", net.Name)
		}
	}
	gmBase = pow6(gmBase)
	gmSuper = pow6(gmSuper)
	if gmBase < 0.2 || gmBase > 0.6 {
		t.Errorf("Baseline geomean speedup = %.2f×, want ≈0.4× (paper)", gmBase)
	}
	if gmSuper < 17 || gmSuper > 29 {
		t.Errorf("SuperNPU geomean speedup = %.1f×, want ≈23× (paper)", gmSuper)
	}
}

// pow6 is the sixth root: the geomean over the six workloads.
func pow6(x float64) float64 { return math.Pow(x, 1.0/6) }

func TestOptimisationLadder(t *testing.T) {
	// Geomean speedups must be ordered Baseline < Buffer opt. <
	// Resource opt. ≤ SuperNPU (Fig. 23's accumulative story).
	net := workload.ResNet50()
	var prev float64
	for i, cfg := range arch.Designs() {
		s, err := Speedup(context.Background(), SFQDesign(cfg), net)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && s < prev {
			t.Errorf("%s (%.2f×) must not regress from the previous step (%.2f×)", cfg.Name, s, prev)
		}
		prev = s
	}
}

func TestMaxBatchDispatch(t *testing.T) {
	net := workload.VGG16()
	if got := CMOSDesign(scalesim.TPU()).MaxBatch(net); got != 3 {
		t.Errorf("TPU VGG16 batch = %d, want 3", got)
	}
	if got := SFQDesign(arch.SuperNPU()).MaxBatch(net); got != 7 {
		t.Errorf("SuperNPU VGG16 batch = %d, want 7", got)
	}
}

// TestWarmEvaluateAllocatesOnlyItsResult pins the warm evaluation cost:
// with the simulation cached, Evaluate allocates the Evaluation it returns
// and nothing else, so the simulator call beneath it allocates nothing on
// either platform.
func TestWarmEvaluateAllocatesOnlyItsResult(t *testing.T) {
	ctx := context.Background()
	for _, d := range DesignPoints() {
		for _, net := range workload.All() {
			if _, err := Evaluate(ctx, d, net, 1); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := Evaluate(ctx, d, net, 1); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 1 {
				t.Errorf("%s/%s: a warm Evaluate allocates %.1f times, want 1 (its result)", d.Name(), net.Name, allocs)
			}
		}
	}
}
