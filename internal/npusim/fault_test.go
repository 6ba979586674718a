package npusim

import (
	"context"
	"fmt"
	"testing"

	"supernpu/internal/arch"
	"supernpu/internal/faultinject"
	"supernpu/internal/parallel"
	"supernpu/internal/simcache"
	"supernpu/internal/workload"
)

func testNet(t *testing.T) workload.Network {
	t.Helper()
	for _, n := range workload.All() {
		if n.Name == "AlexNet" {
			return n
		}
	}
	t.Fatal("AlexNet not in workload.All()")
	return workload.Network{}
}

func TestSimulateFaultedDisabledSharesNominalCache(t *testing.T) {
	net := testNet(t)
	nominal, err := Simulate(context.Background(), arch.SuperNPU(), net, 1)
	if err != nil {
		t.Fatal(err)
	}
	same, err := SimulateFaulted(context.Background(), arch.SuperNPU(), net, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if same != nominal {
		t.Fatal("disabled fault model did not share the nominal cache entry")
	}
	if nominal.Faults != nil {
		t.Fatal("nominal report carries fault stats")
	}
}

func TestSimulateFaultedChargesAndDegrades(t *testing.T) {
	net := testNet(t)
	fm := &faultinject.Model{Seed: 42, IcSpread: 0.05, PulseDrop: 1e-6, BitFlip: 1e-8, MarginErosion: 0.1}
	nominal, err := Simulate(context.Background(), arch.SuperNPU(), net, 1)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := SimulateFaulted(context.Background(), arch.SuperNPU(), net, 1, fm)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Faults == nil {
		t.Fatal("faulted report carries no fault stats")
	}
	if faulted.Faults.DroppedPulses <= 0 || faulted.Faults.RetryCycles <= 0 {
		t.Fatalf("pulse drops not charged: %+v", faulted.Faults)
	}
	if faulted.Faults.BitFlips <= 0 || faulted.Faults.Accuracy >= 1 || faulted.Faults.Accuracy < 0 {
		t.Fatalf("bit flips not reflected in the accuracy proxy: %+v", faulted.Faults)
	}
	if faulted.Frequency >= nominal.Frequency {
		t.Fatalf("margin erosion did not lower frequency: %g >= %g", faulted.Frequency, nominal.Frequency)
	}
	// Total cycles can shrink (a slower clock needs fewer cycles per DRAM
	// byte), but the batch latency in seconds must grow.
	if faulted.Time <= nominal.Time {
		t.Fatalf("faults did not lengthen the batch latency: %g <= %g", faulted.Time, nominal.Time)
	}
}

func TestSimulateFaultedByteIdenticalAcrossWorkerCounts(t *testing.T) {
	net := testNet(t)
	fm := &faultinject.Model{Seed: 7, IcSpread: 0.03, PulseDrop: 1e-6, BitFlip: 1e-8}
	defer parallel.SetWorkers(0)
	var renders []string
	for _, w := range []int{1, 4} {
		parallel.SetWorkers(w)
		simcache.ClearAll() // force a genuine re-simulation per worker count
		r, err := SimulateFaulted(context.Background(), arch.SuperNPU(), net, 2, fm)
		if err != nil {
			t.Fatal(err)
		}
		renders = append(renders, fmt.Sprintf("%+v %+v", *r.Faults, r.Layers))
	}
	if renders[0] != renders[1] {
		t.Fatal("faulted simulation differs between 1 and 4 workers")
	}
}

func TestSimulateFaultedSimFailReturnsFaultError(t *testing.T) {
	net := testNet(t)
	fm := &faultinject.Model{Seed: 1, SimFail: 1}
	_, err := SimulateFaulted(context.Background(), arch.SuperNPU(), net, 1, fm)
	want := fm.FailSimulation(simSite(arch.SuperNPU(), net, 1))
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("got %v, want the injected fault %v", err, want)
	}
	// The error is deterministic: a second call renders identically.
	_, err2 := SimulateFaulted(context.Background(), arch.SuperNPU(), net, 1, fm)
	if err2 == nil || err.Error() != err2.Error() {
		t.Fatalf("fault error not byte-stable: %v vs %v", err, err2)
	}
}
