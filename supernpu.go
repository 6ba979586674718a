// Package supernpu is a from-scratch reproduction of "SuperNPU: An
// Extremely Fast Neural Processing Unit Using Superconducting Logic
// Devices" (Ishida, Byun et al., MICRO 2020): a modelling and simulation
// framework for single-flux-quantum (SFQ) neural processing units.
//
// The package is the public face of the repository. It exposes:
//
//   - the paper's five evaluation design points — the CMOS TPU core and the
//     four SFQ designs (Baseline, Buffer opt., Resource opt., SuperNPU) —
//     and a unified Evaluate over both simulators;
//   - the SFQ-NPU estimator (frequency / power / area of any SFQ NPU
//     configuration, validated as in Fig. 13);
//   - the six CNN evaluation workloads and constructors for custom ones;
//   - the design-space explorations that produced SuperNPU (buffer
//     division, resource balancing, registers per PE); and
//   - the experiment harness that regenerates every table and figure of
//     the paper's evaluation.
//
// A minimal session:
//
//	net, _ := supernpu.WorkloadByName("ResNet50")
//	ev, _ := supernpu.Evaluate(context.Background(), supernpu.SuperNPU(), net, 0)
//	fmt.Printf("%.1f TMAC/s at %.1f GHz\n", ev.Throughput/1e12, ev.Frequency/1e9)
package supernpu

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"supernpu/internal/arch"
	"supernpu/internal/core"
	"supernpu/internal/dau"
	"supernpu/internal/estimator"
	"supernpu/internal/experiments"
	"supernpu/internal/faultinject"
	"supernpu/internal/parallel"
	"supernpu/internal/scalesim"
	"supernpu/internal/simcache"
	"supernpu/internal/systolic"
	"supernpu/internal/workload"
)

// SetParallelism bounds the worker pool every evaluation fans out through
// (figure regeneration, design-space sweeps, per-layer simulation). n == 1
// forces serial execution; n <= 0 resets to runtime.NumCPU(). Output is
// byte-identical at any setting.
func SetParallelism(n int) { parallel.SetWorkers(n) }

// Parallelism returns the effective worker count.
func Parallelism() int { return parallel.Workers() }

// CacheStats is one simulation cache's hit/miss counter snapshot.
type CacheStats = simcache.Stats

// CacheStatistics returns the hit/miss counters of every simulation memo
// cache (npusim, scalesim, estimator, jsim), sorted by name.
func CacheStatistics() []CacheStats { return simcache.Snapshot() }

// ClearCaches drops every memoised simulation result, forcing the next
// evaluation to recompute from scratch (cold-start benchmarks).
func ClearCaches() { simcache.ClearAll() }

// Design is one evaluated design point (an SFQ NPU configuration or the
// CMOS TPU core).
type Design = core.Design

// Evaluation is the unified result of one workload on one design.
type Evaluation = core.Evaluation

// Network is a DNN workload description.
type Network = workload.Network

// Layer is one network layer.
type Layer = workload.Layer

// Estimate is the SFQ estimator's architecture-level output.
type Estimate = estimator.Result

// SweepPoint is one design-space exploration result.
type SweepPoint = core.SweepPoint

// TPU returns the conventional CMOS accelerator reference (Table I).
func TPU() Design { return core.CMOSDesign(scalesim.TPU()) }

// Baseline returns the naive SFQ NPU design point.
func Baseline() Design { return core.SFQDesign(arch.Baseline()) }

// BufferOpt returns the buffer-optimised SFQ design point.
func BufferOpt() Design { return core.SFQDesign(arch.BufferOpt()) }

// ResourceOpt returns the resource-balanced SFQ design point.
func ResourceOpt() Design { return core.SFQDesign(arch.ResourceOpt()) }

// SuperNPU returns the paper's final design: 64×256 weight-stationary array,
// 48 MB of divided, integrated shift-register buffers, 8 registers per PE.
func SuperNPU() Design { return core.SFQDesign(arch.SuperNPU()) }

// Designs returns the five evaluation design points in Fig. 23 order.
func Designs() []Design { return core.DesignPoints() }

// DesignByName resolves an evaluation design point by display name,
// case-insensitively; an "ERSFQ-" prefix on an SFQ design selects its
// energy-efficient biasing variant (the Table III rows).
func DesignByName(name string) (Design, error) { return core.DesignByName(name) }

// Workloads returns the six evaluation CNNs in Fig. 23 order, as copies
// the caller may modify. Inside the module the networks are shared
// read-only; this facade is where they leave it.
func Workloads() []Network {
	nets := workload.All()
	for i := range nets {
		nets[i].Layers = slices.Clone(nets[i].Layers)
	}
	return nets
}

// WorkloadByName returns a copy of a named evaluation CNN.
func WorkloadByName(name string) (Network, error) {
	net, err := workload.ByName(name)
	net.Layers = slices.Clone(net.Layers)
	return net, err
}

// Evaluate simulates the workload on the design at the given batch size
// (batch 0 selects the design's maximum on-chip batch, Table II).
// Cancellation of ctx aborts the simulation with an error matching
// guard.ErrCanceled (guard.ErrDeadlineExceeded for an expired deadline).
func Evaluate(ctx context.Context, d Design, net Network, batch int) (*Evaluation, error) {
	return core.Evaluate(ctx, d, net, batch)
}

// Speedup returns a design's effective-throughput ratio over the TPU core
// on one workload (the Fig. 23 metric).
func Speedup(ctx context.Context, d Design, net Network) (float64, error) {
	return core.Speedup(ctx, d, net)
}

// EstimateDesign runs the three-layer SFQ estimator on an SFQ design,
// reporting clock frequency, static power, junction count and die area.
func EstimateDesign(ctx context.Context, d Design) (*Estimate, error) {
	return estimator.Estimate(ctx, d.SFQ)
}

// ValidateModels reruns the Fig. 13 validation of the estimator against the
// die-level and post-layout references.
func ValidateModels() estimator.Report { return estimator.Validate() }

// ExploreDivision sweeps the buffer division degree (Fig. 20) under the
// fault model fm (nil is nominal). Cancellation of ctx stops the sweep with
// an error matching guard.ErrCanceled.
func ExploreDivision(ctx context.Context, degrees []int, fm *FaultModel) ([]SweepPoint, error) {
	return core.ExploreDivision(ctx, degrees, fm)
}

// ExploreWidth sweeps PE-array width with rebalanced buffers (Fig. 21)
// under the fault model fm.
func ExploreWidth(ctx context.Context, fm *FaultModel) ([]SweepPoint, error) {
	return core.ExploreWidth(ctx, fm)
}

// ExploreRegisters sweeps registers per PE (Fig. 22) at one of Fig. 21's
// array widths, with that point's buffer capacity, under the fault model
// fm. Any other width is an error.
func ExploreRegisters(ctx context.Context, width int, regs []int, fm *FaultModel) ([]SweepPoint, error) {
	return core.ExploreRegisters(ctx, width, regs, fm)
}

// FaultModel is the deterministic, seed-keyed SFQ fault model: critical-
// current spread, thermal pulse drops, datapath bit flips, timing-margin
// erosion and whole-simulation aborts, every draw a pure function of
// (seed, site). A nil or zero-rate model is exactly the nominal path.
type FaultModel = faultinject.Model

// EvaluateWithFaults is Evaluate under a fault model: junction spread
// perturbs the operating point, pulse drops charge recirculation cycles,
// bit flips degrade the accuracy proxy. CMOS designs always run nominally.
func EvaluateWithFaults(ctx context.Context, d Design, net Network, batch int, fm *FaultModel) (*Evaluation, error) {
	return core.EvaluateFaulted(ctx, d, net, batch, fm)
}

// EvaluateAnalytical is the graceful-degradation roofline estimate of an SFQ
// design — no cycle simulation; the evaluation service falls back to it when
// a fault-injected simulation aborts.
func EvaluateAnalytical(ctx context.Context, d Design, net Network, batch int) (*Evaluation, error) {
	return core.EvaluateAnalytical(ctx, d, net, batch)
}

// MarginSweepOptions configures the bias-margin robustness exhibit.
type MarginSweepOptions = experiments.MarginSweepOptions

// MarginSweep regenerates the bias-margin-vs-throughput/accuracy exhibit:
// SuperNPU on ResNet-50 swept over junction critical-current spread under
// the seeded fault model. Byte-identical across runs and worker counts for
// a fixed seed.
func MarginSweep(ctx context.Context, o MarginSweepOptions) (string, error) {
	return experiments.MarginSweep(ctx, o)
}

// ExperimentIDs lists the reproducible paper exhibits (fig5 … table3).
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one paper exhibit or ablation study (an id
// from ExperimentIDs or AblationIDs) as rendered text. An unknown id is an
// error. Cancellation of ctx aborts the underlying simulations.
func RunExperiment(ctx context.Context, id string) (string, error) {
	return experiments.Run(ctx, id)
}

// RunAllExperiments regenerates every paper exhibit. Cancellation of ctx
// stops the fan-out and aborts the exhibits already in flight.
func RunAllExperiments(ctx context.Context) (string, error) { return experiments.RunAll(ctx) }

// NewConvLayer builds a convolution layer for custom networks.
func NewConvLayer(name string, h, w, c, r, s, m, stride, pad int) Layer {
	return Layer{Name: name, Kind: workload.Conv, H: h, W: w, C: c, R: r, S: s, M: m, Stride: stride, Pad: pad}
}

// NewDepthwiseLayer builds a depthwise convolution layer.
func NewDepthwiseLayer(name string, h, w, c, r, s, stride, pad int) Layer {
	return Layer{Name: name, Kind: workload.DepthwiseConv, H: h, W: w, C: c, R: r, S: s, M: c, Stride: stride, Pad: pad}
}

// NewFCLayer builds a fully connected layer.
func NewFCLayer(name string, in, out int) Layer {
	return Layer{Name: name, Kind: workload.FullyConnected, H: 1, W: 1, C: in, R: 1, S: 1, M: out, Stride: 1}
}

// NewPoolLayer builds a pooling layer (no MACs; reshapes activations).
func NewPoolLayer(name string, h, w, c, r, stride, pad int) Layer {
	return Layer{Name: name, Kind: workload.Pool, H: h, W: w, C: c, R: r, S: r, M: c, Stride: stride, Pad: pad}
}

// NewNetwork builds a custom workload from layers; Validate is the caller's
// contract before simulation.
func NewNetwork(name string, layers ...Layer) Network {
	return Network{Name: name, Layers: layers}
}

// FunctionalCheck runs one layer through the cycle-stepped functional
// systolic array (PEs, DAU selection, timing skew, multi-register
// interleaving) on pseudorandom int8 data and verifies the result against a
// direct golden convolution. It returns the array statistics; a mismatch is
// reported as an error. This is the datapath-correctness path of the
// repository — the performance simulator charges cycles for exactly these
// mechanics.
func FunctionalCheck(l Layer, rows, cols, regs int, seed int64) (systolic.Stats, error) {
	arr, err := systolic.NewArray(rows, cols, regs)
	if err != nil {
		return systolic.Stats{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := dau.NewIfmap(l.C, l.H, l.W)
	for c := 0; c < l.C; c++ {
		for y := 0; y < l.H; y++ {
			for x := 0; x < l.W; x++ {
				in[c][y][x] = int8(rng.Intn(256) - 128)
			}
		}
	}
	wc := l.C
	if l.Kind == workload.DepthwiseConv {
		wc = 1
	}
	w := systolic.NewWeights(l.M, wc, l.R, l.S)
	for m := range w {
		for c := range w[m] {
			for r := range w[m][c] {
				for s := range w[m][c][r] {
					w[m][c][r][s] = int8(rng.Intn(256) - 128)
				}
			}
		}
	}
	got, stats, err := arr.Run(l, w, in)
	if err != nil {
		return stats, err
	}
	want := systolic.Reference(l, w, in)
	for m := range want {
		for e := range want[m] {
			for f := range want[m][e] {
				if got[m][e][f] != want[m][e][f] {
					return stats, fmt.Errorf("supernpu: functional mismatch at [%d][%d][%d]: %d != %d",
						m, e, f, got[m][e][f], want[m][e][f])
				}
			}
		}
	}
	return stats, nil
}

// AblationIDs lists the repository's design-choice ablation studies
// (dataflow, clock skewing, DAU, bandwidth, process scaling, batch, memory
// system).
func AblationIDs() []string { return experiments.AblationIDs() }
