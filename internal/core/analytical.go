package core

import (
	"context"
	"fmt"
	"math"

	"supernpu/internal/estimator"
	"supernpu/internal/workload"
)

// EvaluateAnalytical is the graceful-degradation path: a roofline estimate of
// an SFQ design from the architecture estimator alone, with no cycle
// simulation. The evaluation service falls back to it when the simulator
// faults, so a degraded deployment keeps answering with an honest
// approximation instead of a 500.
//
// The model is the classic two-ceiling roofline: batch latency is the larger
// of the compute time at the estimator's peak MAC rate and the DRAM time to
// move the weights once plus every layer's input and output activations per
// image. It is deterministic (the estimator memoises by configuration),
// so repeated degraded responses are byte-identical.
func EvaluateAnalytical(ctx context.Context, d Design, net workload.Network, batch int) (*Evaluation, error) {
	if d.Platform != SFQ {
		return nil, fmt.Errorf("core: no analytical fallback for %q (SFQ designs only)", d.Name())
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if batch <= 0 {
		batch = d.MaxBatch(net)
	}
	est, err := estimator.Estimate(ctx, d.SFQ)
	if err != nil {
		return nil, err
	}
	macs := net.TotalMACs() * int64(batch)
	var acts int64
	for _, l := range net.Layers {
		acts += l.WorkingSetBytes()
	}
	traffic := net.TotalWeightBytes() + int64(batch)*acts
	computeTime := float64(macs) / est.PeakMACs
	memoryTime := float64(traffic) / d.SFQ.MemoryBandwidth
	time := math.Max(computeTime, memoryTime)
	return &Evaluation{
		Design: d.Name(), Network: net.Name, Batch: batch,
		Frequency: est.Frequency, PeakMACs: est.PeakMACs,
		Throughput: float64(macs) / time, Time: time,
		PEUtilization: computeTime / time,
		TotalCycles:   int64(math.Round(time * est.Frequency)),
		MACs:          macs,
		// Static power only: the roofline has no switching-activity model.
		ChipPower: est.StaticPower,
	}, nil
}
