package supernpu

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"supernpu/internal/sfq"
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
	d, err := DesignByName("ERSFQ-SuperNPU")
	if err != nil {
		t.Fatal(err)
	}
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

// TestFacadeRejectsInvalidInput holds the facade to validating outside
// input where it enters: each call names a model the paper does not
// define (a fault rate outside its range, a technology other than RSFQ and
// ERSFQ, a negative batch, an array without rows) and must fail instead of
// returning a result or panicking.
func TestFacadeRejectsInvalidInput(t *testing.T) {
	ctx := context.Background()
	net, err := WorkloadByName("AlexNet")
	if err != nil {
		t.Fatal(err)
	}
	faulted := func(fm *FaultModel) func() error {
		return func() error { _, err := EvaluateWithFaults(ctx, SuperNPU(), net, 1, fm); return err }
	}
	bad := &FaultModel{Seed: 1, BitFlip: 5}
	tech7 := SuperNPU()
	tech7.SFQ.Tech = 7
	noRows := Baseline()
	noRows.SFQ.ArrayHeight = 0
	cases := []struct {
		name string
		call func() error
	}{
		{"EvaluateWithFaults, probability above 1", faulted(&FaultModel{Seed: 1, BitFlip: 5})},
		{"EvaluateWithFaults, negative rate", faulted(&FaultModel{Seed: 1, IcSpread: -0.5})},
		{"EvaluateWithFaults, NaN rate", faulted(&FaultModel{Seed: 1, SimFail: math.NaN()})},
		{"ExploreDivision", func() error { _, err := ExploreDivision(ctx, []int{4}, bad); return err }},
		{"ExploreWidth", func() error { _, err := ExploreWidth(ctx, bad); return err }},
		{"ExploreRegisters", func() error { _, err := ExploreRegisters(ctx, 64, []int{1}, bad); return err }},
		{"MarginSweep", func() error {
			_, err := MarginSweep(ctx, MarginSweepOptions{Seed: 1, BitFlipPerSpread: 100})
			return err
		}},
		{"Evaluate, technology 7", func() error { _, err := Evaluate(ctx, tech7, net, 1); return err }},
		{"EstimateDesign, technology 7", func() error { _, err := EstimateDesign(ctx, tech7); return err }},
		{"EvaluateAnalytical, batch -1", func() error { _, err := EvaluateAnalytical(ctx, SuperNPU(), net, -1); return err }},
		{"EvaluateAnalytical, no PE rows", func() error { _, err := EvaluateAnalytical(ctx, noRows, net, 0); return err }},
	}
	for _, tc := range cases {
		if err := tc.call(); err == nil {
			t.Errorf("%s: returned a result, want an error", tc.name)
		}
	}
}

// TestMaxBatchRejectsInvalidInput: Design.MaxBatch validates the design
// and the network it is handed before its buffer arithmetic divides by
// their dimensions. Each case panicked with an integer divide by zero
// before MaxBatch returned an error.
func TestMaxBatchRejectsInvalidInput(t *testing.T) {
	alex, err := WorkloadByName("AlexNet")
	if err != nil {
		t.Fatal(err)
	}
	noRows := Baseline()
	noRows.SFQ.ArrayHeight = 0
	noColumns := SuperNPU()
	noColumns.SFQ.ArrayWidth = 0
	emptyConv := NewNetwork("empty", NewConvLayer("c", 0, 0, 3, 3, 3, 8, 1, 1))
	for _, tc := range []struct {
		name string
		d    Design
		net  Network
	}{
		{"Baseline with no PE rows", noRows, alex},
		{"SuperNPU with no PE columns", noColumns, alex},
		{"conv layer with H = W = 0", SuperNPU(), emptyConv},
	} {
		if b, err := tc.d.MaxBatch(tc.net); err == nil {
			t.Errorf("%s: MaxBatch = %d, want an error", tc.name, b)
		}
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

// TestReportLeavesNominalLibrariesIntact checks that a full report, the
// ablations and ValidateModels leave each shared nominal cell library
// equal to a freshly built one: the exhibits, estimator and simulators
// read them, and none may write.
func TestReportLeavesNominalLibrariesIntact(t *testing.T) {
	ctx := context.Background()
	ClearCaches()
	if _, err := RunAllExperiments(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range AblationIDs() {
		if _, err := RunExperiment(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	ValidateModels()
	for _, tech := range []sfq.Technology{sfq.RSFQ, sfq.ERSFQ} {
		if !reflect.DeepEqual(sfq.NominalLibrary(tech), sfq.NewLibrary(sfq.AIST10(), tech)) {
			t.Errorf("the shared nominal %v library no longer equals a fresh one", tech)
		}
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
