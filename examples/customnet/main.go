// Customnet: define a user CNN with the public layer constructors, size its
// batch on every design, simulate it end to end, and verify the datapath on
// one of its layers — the workflow a downstream user follows to evaluate
// their own model on an SFQ NPU.
package main

import (
	"context"
	"fmt"
	"log"

	"supernpu"
)

func main() {
	ctx := context.Background()
	// A compact CIFAR-style CNN.
	net := supernpu.NewNetwork("TinyCIFAR",
		supernpu.NewConvLayer("conv1", 32, 32, 3, 3, 3, 32, 1, 1),
		supernpu.NewConvLayer("conv2", 32, 32, 32, 3, 3, 32, 1, 1),
		supernpu.NewPoolLayer("pool1", 32, 32, 32, 2, 2, 0),
		supernpu.NewConvLayer("conv3", 16, 16, 32, 3, 3, 64, 1, 1),
		supernpu.NewDepthwiseLayer("dw4", 16, 16, 64, 3, 3, 1, 1),
		supernpu.NewConvLayer("pw4", 16, 16, 64, 1, 1, 128, 1, 0),
		supernpu.NewPoolLayer("pool2", 16, 16, 128, 2, 2, 0),
		supernpu.NewFCLayer("fc", 8*8*128, 10),
	)
	if err := net.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d layers, %.1f MMACs/inference, %.1f KB of weights\n\n",
		net.Name, len(net.Layers), float64(net.TotalMACs())/1e6,
		float64(net.TotalWeightBytes())/1024)

	// How large a batch does each design hold on-chip?
	fmt.Println("max on-chip batch per design:")
	for _, d := range supernpu.Designs() {
		b, err := d.MaxBatch(net)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s %d\n", d.Name(), b)
	}
	fmt.Println()

	// End-to-end evaluation.
	for _, d := range []supernpu.Design{supernpu.TPU(), supernpu.SuperNPU()} {
		ev, err := supernpu.Evaluate(ctx, d, net, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s batch %2d: %8.3f TMAC/s, latency %.3g ms\n",
			d.Name(), ev.Batch, ev.Throughput/1e12, ev.Time*1e3)
	}
	fmt.Println()

	// Verify the SFQ datapath computes conv3 exactly (PE array + DAU).
	stats, err := supernpu.FunctionalCheck(net.Layers[3], 64, 16, 4, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("functional check on conv3: OK (%d mappings, %d cycles)\n",
		stats.Mappings, stats.Cycles)
}
