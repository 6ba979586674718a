// Quickstart: evaluate ResNet-50 on SuperNPU and on the conventional TPU
// core, print the headline comparison, and check the SFQ datapath actually
// computes a convolution correctly.
package main

import (
	"context"
	"fmt"
	"log"

	"supernpu"
)

func main() {
	ctx := context.Background()
	net, err := supernpu.WorkloadByName("ResNet50")
	if err != nil {
		log.Fatal(err)
	}

	// 1. Simulate on both machines at their maximum on-chip batch.
	tpu, err := supernpu.Evaluate(ctx, supernpu.TPU(), net, 0)
	if err != nil {
		log.Fatal(err)
	}
	snpu, err := supernpu.Evaluate(ctx, supernpu.SuperNPU(), net, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s inference\n", net.Name)
	fmt.Printf("  TPU core : batch %2d, %6.2f TMAC/s (%.1f%% of %4.1f TMAC/s peak)\n",
		tpu.Batch, tpu.Throughput/1e12, tpu.PEUtilization*100, tpu.PeakMACs/1e12)
	fmt.Printf("  SuperNPU : batch %2d, %6.2f TMAC/s (%.1f%% of %4.0f TMAC/s peak) at %.1f GHz\n",
		snpu.Batch, snpu.Throughput/1e12, snpu.PEUtilization*100, snpu.PeakMACs/1e12,
		snpu.Frequency/1e9)
	fmt.Printf("  speedup  : %.1fx\n\n", snpu.Throughput/tpu.Throughput)

	// 2. Power: the RSFQ design burns static bias power; ERSFQ removes it.
	ersfqDesign, err := supernpu.DesignByName("ERSFQ-SuperNPU")
	if err != nil {
		log.Fatal(err)
	}
	ersfq, err := supernpu.Evaluate(ctx, ersfqDesign, net, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chip power: RSFQ %.0f W, ERSFQ %.2f W (TPU: %.0f W)\n\n",
		snpu.ChipPower, ersfq.ChipPower, tpu.ChipPower)

	// 3. Functional check: the weight-stationary systolic array + data
	// alignment unit compute a real ResNet-style 3x3 convolution exactly.
	layer := supernpu.NewConvLayer("conv2_1_b", 56, 56, 8, 3, 3, 16, 1, 1)
	stats, err := supernpu.FunctionalCheck(layer, 72, 16, 2, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("functional check: %s matched the golden convolution (%d MACs over %d cycles, %d mappings)\n",
		layer.Name, stats.MACs, stats.Cycles, stats.Mappings)
}
