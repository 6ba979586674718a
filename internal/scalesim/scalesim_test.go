package scalesim

import (
	"context"
	"testing"
	"testing/quick"

	"supernpu/internal/workload"
)

func TestTPUConfig(t *testing.T) {
	c := TPU()
	if c.PeakMACs() != 256*256*0.7e9 {
		t.Fatalf("TPU peak = %g, want 45.9 TMAC/s", c.PeakMACs())
	}
	if c.Power != 40 {
		t.Fatal("TPU average power must be 40 W (Table III)")
	}
}

// Table II: TPU batch sizes from the 24 MB unified buffer.
func TestTPUBatches(t *testing.T) {
	want := map[string]int{"AlexNet": 22, "VGG16": 3, "ResNet50": 20}
	tol := map[string]int{"AlexNet": 1, "VGG16": 0, "ResNet50": 2}
	for name, b := range want {
		net, _ := workload.ByName(name)
		got := TPU().MaxBatch(net)
		if got < b-tol[name] || got > b+tol[name] {
			t.Errorf("%s TPU batch = %d, want %d±%d", name, got, b, tol[name])
		}
	}
}

func TestTPUEffectivePerformance(t *testing.T) {
	// The TPU runs the CNNs at a healthy but partial utilization: tens of
	// percent for conv-heavy nets, near-zero for depthwise MobileNet.
	for _, net := range workload.All() {
		r, err := Simulate(context.Background(), TPU(), net, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.PEUtilization <= 0 || r.PEUtilization > 0.85 {
			t.Errorf("%s: TPU utilization = %.1f%% implausible", net.Name, r.PEUtilization*100)
		}
	}
	res, _ := Simulate(context.Background(), TPU(), workload.ResNet50(), 0)
	if res.PEUtilization < 0.2 {
		t.Errorf("ResNet50 on TPU = %.1f%% util, want tens of percent", res.PEUtilization*100)
	}
	mob, _ := Simulate(context.Background(), TPU(), workload.MobileNet(), 0)
	if mob.PEUtilization > 0.05 {
		t.Errorf("MobileNet on TPU = %.1f%% util, want ≪5%% (depthwise-bound)", mob.PEUtilization*100)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(context.Background(), TPU(), workload.Network{Name: "x"}, 1); err == nil {
		t.Error("Simulate must reject invalid networks")
	}
	if _, err := Simulate(context.Background(), TPU(), workload.VGG16(), -1); err == nil {
		t.Error("Simulate must reject negative batches")
	}
}

// Property: MAC conservation and report invariants.
func TestTPUInvariantsProperty(t *testing.T) {
	nets := workload.All()
	f := func(nSel, b8 uint8) bool {
		net := nets[int(nSel)%len(nets)]
		batch := 1 + int(b8)%8
		r, err := Simulate(context.Background(), TPU(), net, batch)
		if err != nil {
			return false
		}
		return r.MACs == int64(batch)*net.TotalMACs() &&
			r.TotalCycles == r.ComputeCycles+r.StallCycles &&
			r.PEUtilization > 0 && r.PEUtilization <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 24}); err != nil {
		t.Fatal(err)
	}
}

// Property: stalls only shrink when bandwidth grows.
func TestBandwidthMonotonicityProperty(t *testing.T) {
	net := workload.VGG16()
	f := func(mult uint8) bool {
		lo := TPU()
		hi := TPU()
		hi.Bandwidth *= 1 + float64(mult%8)
		rl, err1 := Simulate(context.Background(), lo, net, 4)
		rh, err2 := Simulate(context.Background(), hi, net, 4)
		if err1 != nil || err2 != nil {
			return false
		}
		return rh.StallCycles <= rl.StallCycles
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPoolFirstNetworkFetchesInputs checks that the network input is
// fetched from DRAM by the first compute layer, not by the network's first
// layer: a shape-preserving pool in front of a network changes none of its
// cycles or MACs.
func TestPoolFirstNetworkFetchesInputs(t *testing.T) {
	for _, net := range workload.All() {
		f := net.Layers[0]
		pool := workload.Layer{Name: "entry-pool", Kind: workload.Pool,
			H: f.H, W: f.W, C: f.C, R: 1, S: 1, M: f.C, Stride: 1}
		pf := workload.Network{Name: net.Name + "-pool-first",
			Layers: append([]workload.Layer{pool}, net.Layers...)}
		for _, batch := range []int{1, TPU().MaxBatch(net)} {
			want, err := Simulate(context.Background(), TPU(), net, batch)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Simulate(context.Background(), TPU(), pf, batch)
			if err != nil {
				t.Fatal(err)
			}
			if got.TotalCycles != want.TotalCycles || got.StallCycles != want.StallCycles ||
				got.DRAMCycles != want.DRAMCycles || got.MACs != want.MACs {
				t.Errorf("%s/b%d: pool-first reads %d cycles (%d stall, %d DRAM), %d MACs; "+
					"want %d cycles (%d stall, %d DRAM), %d MACs", net.Name, batch,
					got.TotalCycles, got.StallCycles, got.DRAMCycles, got.MACs,
					want.TotalCycles, want.StallCycles, want.DRAMCycles, want.MACs)
			}
		}
	}
}
