package supernpu

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"supernpu/internal/workload"
)

func TestFacadeDesigns(t *testing.T) {
	names := []string{}
	for _, d := range Designs() {
		names = append(names, d.Name())
	}
	want := "TPU Baseline Buffer opt. Resource opt. SuperNPU"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("Designs() = %q, want %q", got, want)
	}
	if len(Workloads()) != 6 {
		t.Fatal("Workloads() must return the six evaluation CNNs")
	}
}

func TestFacadeEvaluateAndSpeedup(t *testing.T) {
	net, err := WorkloadByName("GoogLeNet")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(context.Background(), SuperNPU(), net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Throughput <= 0 || ev.Batch != 30 {
		t.Fatalf("unexpected evaluation: %+v", ev)
	}
	s, err := Speedup(context.Background(), SuperNPU(), net)
	if err != nil {
		t.Fatal(err)
	}
	if s < 10 {
		t.Fatalf("SuperNPU speedup on GoogLeNet = %.1f, want > 10", s)
	}
}

func TestFacadeERSFQ(t *testing.T) {
	d := ERSFQ(SuperNPU())
	if d.Name() != "ERSFQ-SuperNPU" {
		t.Fatalf("name = %q", d.Name())
	}
	est, err := EstimateDesign(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if est.StaticPower != 0 {
		t.Fatal("ERSFQ design must have zero static power")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ERSFQ on a CMOS design must panic")
		}
	}()
	ERSFQ(TPU())
}

func TestFacadeCustomNetwork(t *testing.T) {
	net := NewNetwork("tiny",
		NewConvLayer("c1", 32, 32, 3, 3, 3, 16, 1, 1),
		NewDepthwiseLayer("dw", 32, 32, 16, 3, 3, 2, 1),
		NewConvLayer("pw", 16, 16, 16, 1, 1, 32, 1, 0),
		NewPoolLayer("pool", 16, 16, 32, 2, 2, 0),
		NewFCLayer("fc", 8*8*32, 10),
	)
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(context.Background(), SuperNPU(), net, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ev.MACs != 4*net.TotalMACs() {
		t.Fatal("custom network MAC accounting wrong")
	}
}

func TestFacadeValidationAndExperiments(t *testing.T) {
	if rep := ValidateModels(); len(rep.Items) != 11 {
		t.Fatal("validation must cover the 11 Fig. 13 subjects")
	}
	if len(ExperimentIDs()) != 13 {
		t.Fatal("13 exhibits expected")
	}
	out, err := RunExperiment(context.Background(), "table2")
	if err != nil || !strings.Contains(out, "Table II") {
		t.Fatalf("RunExperiment failed: %v", err)
	}
}

func TestFacadeExploration(t *testing.T) {
	ctx := context.Background()
	pts, err := ExploreDivision(ctx, []int{64}, nil)
	if err != nil || len(pts) != 3 {
		t.Fatalf("ExploreDivision: %v (%d points)", err, len(pts))
	}
	if pts[2].MaxBatch <= pts[0].MaxBatch {
		t.Fatal("division 64 must beat the Baseline")
	}
	w, err := ExploreWidth(ctx, nil)
	if err != nil || len(w) != 5 {
		t.Fatalf("ExploreWidth: %v", err)
	}
	r, err := ExploreRegisters(ctx, 64, []int{1, 8}, nil)
	if err != nil || len(r) != 2 {
		t.Fatalf("ExploreRegisters: %v", err)
	}
}

// TestReturnedNetworksAreCopies pins the facade's ownership contract:
// inside the module the six CNNs are shared read-only templates, so a
// caller mutating a network from Workloads or WorkloadByName must change
// nothing any later caller sees.
func TestReturnedNetworksAreCopies(t *testing.T) {
	fresh := freshNetworks()
	for i, n := range Workloads() {
		n.Layers[0].M++
		n.Layers[len(n.Layers)-1].Name = "mutated"
		n.Layers = append(n.Layers[:1], n.Layers[2:]...)
		got, err := WorkloadByName(fresh[i].Name)
		if err != nil {
			t.Fatal(err)
		}
		got.Layers[1].C++
		if !reflect.DeepEqual(Workloads()[i], fresh[i]) {
			t.Errorf("%s: mutating returned copies changed the next Workloads result", fresh[i].Name)
		}
		if again, _ := WorkloadByName(fresh[i].Name); !reflect.DeepEqual(again, fresh[i]) {
			t.Errorf("%s: mutating returned copies changed the next WorkloadByName result", fresh[i].Name)
		}
	}
	if !reflect.DeepEqual(workload.All(), fresh) {
		t.Error("mutating the facade's copies changed the shared templates")
	}
}

// TestRunAllLeavesSharedNetworksIntact checks that no code in the module
// writes to the shared CNN templates: after a full report they still equal
// freshly built networks.
func TestRunAllLeavesSharedNetworksIntact(t *testing.T) {
	ClearCaches() // compute every result, so every code path runs
	if _, err := RunAllExperiments(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(workload.All(), freshNetworks()) {
		t.Error("a full report modified the shared CNN templates")
	}
}

// freshNetworks builds the six CNNs anew, in Fig. 23 order.
func freshNetworks() []Network {
	return []Network{workload.AlexNet(), workload.FasterRCNN(), workload.GoogLeNet(),
		workload.MobileNet(), workload.ResNet50(), workload.VGG16()}
}

// TestCacheFamilies pins the memo-cache registry: the whole-simulation
// caches and the estimator and jsim caches, and no per-layer family.
func TestCacheFamilies(t *testing.T) {
	var names []string
	for _, s := range CacheStatistics() {
		names = append(names, s.Name)
	}
	if got, want := strings.Join(names, " "), "estimator jsim npusim scalesim"; got != want {
		t.Errorf("registered caches = %q, want %q", got, want)
	}
}
