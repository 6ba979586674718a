// Workloads: run the paper's full evaluation — all six CNN workloads on all
// five design points (Fig. 23) plus the Table III power-efficiency rows.
package main

import (
	"context"
	"fmt"
	"log"

	"supernpu"
)

func main() {
	ctx := context.Background()
	designs := supernpu.Designs()

	fmt.Printf("%-12s", "workload")
	for _, d := range designs {
		fmt.Printf("  %13s", d.Name())
	}
	fmt.Println("   (speedup vs TPU)")

	for _, net := range supernpu.Workloads() {
		ref, err := supernpu.Evaluate(ctx, designs[0], net, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s", net.Name)
		for _, d := range designs {
			ev, err := supernpu.Evaluate(ctx, d, net, 0)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %12.2fx", ev.Throughput/ref.Throughput)
		}
		fmt.Println()
	}
	fmt.Println()

	// Table III: power efficiency of SuperNPU under both SFQ technologies.
	net, _ := supernpu.WorkloadByName("ResNet50")
	tpu, _ := supernpu.Evaluate(ctx, supernpu.TPU(), net, 0)
	rsfq, err := supernpu.Evaluate(ctx, supernpu.SuperNPU(), net, 0)
	if err != nil {
		log.Fatal(err)
	}
	ersfqDesign, err := supernpu.DesignByName("ERSFQ-SuperNPU")
	if err != nil {
		log.Fatal(err)
	}
	ersfq, err := supernpu.Evaluate(ctx, ersfqDesign, net, 0)
	if err != nil {
		log.Fatal(err)
	}

	tpuEff := tpu.Throughput / tpu.ChipPower
	const cooling = 400.0
	fmt.Println("power efficiency on ResNet50 (normalised to the TPU core):")
	fmt.Printf("  RSFQ-SuperNPU  %7.0f W  perf/W %6.3fx (w/ cooling %7.4fx)\n",
		rsfq.ChipPower, rsfq.Throughput/rsfq.ChipPower/tpuEff,
		rsfq.Throughput/(rsfq.ChipPower*cooling)/tpuEff)
	fmt.Printf("  ERSFQ-SuperNPU %7.2f W  perf/W %6.0fx (w/ cooling %7.2fx)\n",
		ersfq.ChipPower, ersfq.Throughput/ersfq.ChipPower/tpuEff,
		ersfq.Throughput/(ersfq.ChipPower*cooling)/tpuEff)
}
