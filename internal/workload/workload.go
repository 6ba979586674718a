// Package workload describes the six CNN inference workloads of the paper's
// evaluation (AlexNet, Faster R-CNN, GoogLeNet, MobileNet, ResNet-50,
// VGG16) as exact layer shapes, and derives the quantities the simulators
// need: MAC counts, per-layer working sets, the maximum batch size a given
// on-chip buffer capacity supports without extra off-chip traffic
// (Table II), and the duplicated-ifmap-pixel analysis of Fig. 8.
//
// All networks take the paper's standard 224×224×3 input (AlexNet uses the
// conventional 227×227 crop so its stride-4 stem divides evenly). Data is
// 8-bit, matching the NPU datapath.
package workload

import (
	"errors"
	"fmt"
)

// ErrUnknownKind marks a layer kind outside the defined Conv/DepthwiseConv/
// FullyConnected/Pool set. Boundary code (the evaluation service, CLI flag
// parsing) matches it with errors.Is to reject the input instead of
// crashing.
var ErrUnknownKind = errors.New("workload: unknown kind")

// Kind classifies a layer for the mapper.
type Kind int

const (
	// Conv is a standard convolution.
	Conv Kind = iota
	// DepthwiseConv convolves each input channel with its own filter
	// (M filters, one per channel; C is the channel count and M must
	// equal C).
	DepthwiseConv
	// FullyConnected is a matrix–vector layer, treated as a 1×1
	// convolution over a 1×1 spatial extent.
	FullyConnected
	// Pool is a pooling layer: it reshapes activations but performs no
	// MACs on the NPU datapath.
	Pool
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Conv:
		return "conv"
	case DepthwiseConv:
		return "dwconv"
	case FullyConnected:
		return "fc"
	case Pool:
		return "pool"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Layer is one network layer in NPU terms.
type Layer struct {
	Name   string
	Kind   Kind
	H, W   int // ifmap spatial extent
	C      int // ifmap channels
	R, S   int // filter spatial extent
	M      int // number of filters (output channels)
	Stride int
	Pad    int
}

// Validate reports a shape error, if any.
func (l Layer) Validate() error {
	if l.Kind < Conv || l.Kind > Pool {
		return fmt.Errorf("%w %q in layer %q", ErrUnknownKind, l.Kind, l.Name)
	}
	if l.H <= 0 || l.W <= 0 || l.C <= 0 || l.R <= 0 || l.S <= 0 || l.M <= 0 || l.Stride <= 0 || l.Pad < 0 {
		return fmt.Errorf("workload: layer %q has non-positive dimensions: %+v", l.Name, l)
	}
	if l.Kind == DepthwiseConv && l.M != l.C {
		return fmt.Errorf("workload: depthwise layer %q must have M == C", l.Name)
	}
	if l.OutH() <= 0 || l.OutW() <= 0 {
		return fmt.Errorf("workload: layer %q has empty output", l.Name)
	}
	return nil
}

// OutH returns the output height E.
func (l Layer) OutH() int { return (l.H+2*l.Pad-l.R)/l.Stride + 1 }

// OutW returns the output width F.
func (l Layer) OutW() int { return (l.W+2*l.Pad-l.S)/l.Stride + 1 }

// MACs returns the multiply-accumulate count of the layer for one input.
// It panics with ErrUnknownKind on an unvalidated layer kind (call
// Validate first; the sentinel survives the pool's panic recovery).
func (l Layer) MACs() int64 {
	e, f := int64(l.OutH()), int64(l.OutW())
	switch l.Kind {
	case Conv, FullyConnected:
		return e * f * int64(l.M) * int64(l.R) * int64(l.S) * int64(l.C)
	case DepthwiseConv:
		return e * f * int64(l.C) * int64(l.R) * int64(l.S)
	case Pool:
		return 0
	default:
		// Panicking with the sentinel keeps errors.Is working across the
		// parallel pool's panic-recovery boundary.
		panic(fmt.Errorf("%w %q in layer %q", ErrUnknownKind, l.Kind, l.Name))
	}
}

// IfmapBytes is the layer's input activation size for one input (8-bit).
func (l Layer) IfmapBytes() int64 { return int64(l.H) * int64(l.W) * int64(l.C) }

// OfmapBytes is the layer's output activation size for one input (8-bit).
func (l Layer) OfmapBytes() int64 {
	return int64(l.OutH()) * int64(l.OutW()) * int64(l.M)
}

// WeightBytes is the layer's weight footprint (8-bit).
func (l Layer) WeightBytes() int64 {
	switch l.Kind {
	case DepthwiseConv:
		return int64(l.R) * int64(l.S) * int64(l.C)
	case Pool:
		return 0
	default:
		return int64(l.R) * int64(l.S) * int64(l.C) * int64(l.M)
	}
}

// WorkingSetBytes is the activation working set of the layer for one input:
// input plus output must be resident to avoid extra off-chip traffic.
func (l Layer) WorkingSetBytes() int64 { return l.IfmapBytes() + l.OfmapBytes() }

// ComputeLayers reports whether the layer performs MACs on the NPU.
func (l Layer) ComputeLayer() bool { return l.Kind != Pool }

// Shape is a Layer stripped of its display name: exactly the fields the
// cycle models read, so two layers with equal Shapes charge the same
// cycles. simcache.AppendTilesKey keys a tile plan by it. The struct is
// comparable, so it keys maps directly; keep it in step with Layer.
type Shape struct {
	Kind   Kind
	H, W   int
	C      int
	R, S   int
	M      int
	Stride int
	Pad    int
}

// Shape projects the layer down to its simulation-relevant shape.
func (l Layer) Shape() Shape {
	return Shape{Kind: l.Kind, H: l.H, W: l.W, C: l.C,
		R: l.R, S: l.S, M: l.M, Stride: l.Stride, Pad: l.Pad}
}

// Network is a named sequence of layers.
type Network struct {
	Name   string
	Layers []Layer
}

// Validate checks every layer's shape and the network's dataflow
// consistency: each layer's input spatial extent must be producible by an
// earlier layer (or be the network entry), and at least one layer must
// compute — the simulators drain the last compute layer's output. Channel counts are not chained
// strictly because branching topologies (Inception modules, RPN heads)
// concatenate several branch outputs.
func (n Network) Validate() error {
	if len(n.Layers) == 0 {
		return fmt.Errorf("workload: network %q has no layers", n.Name)
	}
	producible := map[[2]int]bool{
		{n.Layers[0].H, n.Layers[0].W}: true,
	}
	compute := false
	for i, l := range n.Layers {
		if err := l.Validate(); err != nil {
			return err
		}
		if i > 0 && l.Kind != FullyConnected && !producible[[2]int{l.H, l.W}] {
			return fmt.Errorf("workload: %s/%s: no earlier layer produces a %dx%d activation",
				n.Name, l.Name, l.H, l.W)
		}
		producible[[2]int{l.OutH(), l.OutW()}] = true
		compute = compute || l.ComputeLayer()
	}
	if !compute {
		return fmt.Errorf("workload: network %q has no compute layer", n.Name)
	}
	return nil
}

// ComputeLayers returns the layers that perform MACs.
func (n Network) ComputeLayers() []Layer {
	var out []Layer
	for _, l := range n.Layers {
		if l.ComputeLayer() {
			out = append(out, l)
		}
	}
	return out
}

// TotalMACs is the network's MAC count for one input.
func (n Network) TotalMACs() int64 {
	var t int64
	for _, l := range n.Layers {
		t += l.MACs()
	}
	return t
}

// TotalWeightBytes is the network's total weight footprint.
func (n Network) TotalWeightBytes() int64 {
	var t int64
	for _, l := range n.Layers {
		t += l.WeightBytes()
	}
	return t
}

// MaxWorkingSetBytes is the largest per-input activation working set across
// layers — the quantity that bounds the on-chip batch size.
func (n Network) MaxWorkingSetBytes() int64 {
	var m int64
	for _, l := range n.Layers {
		if ws := l.WorkingSetBytes(); ws > m {
			m = ws
		}
	}
	return m
}

// MaxBatch returns the largest batch the given activation buffer capacity
// holds without additional off-chip memory access: every layer's in+out
// activations for the whole batch must fit (the paper's batch-setup rule,
// Table II: e.g. AlexNet's largest layer is 1.05 MB, so a 24 MB buffer
// holds batch 22).
func (n Network) MaxBatch(capacityBytes int64) int {
	ws := n.MaxWorkingSetBytes()
	if ws == 0 {
		return 0
	}
	b := int(capacityBytes / ws)
	if b < 1 {
		return 1 // a single input always runs; it just spills off-chip
	}
	return b
}

// DuplicatedPixelRatio reproduces the Fig. 8 analysis: the fraction of
// ifmap data that is duplicated if every (naive) ifmap buffer row holds all
// pixels its PE-array row's weight needs. Each of the R·S weight positions
// of a filter needs E·F pixels, but only H·W·C of them are unique — the
// rest is weight-sharing duplication.
func (n Network) DuplicatedPixelRatio() float64 {
	var unique, total float64
	for _, l := range n.Layers {
		switch l.Kind {
		case Conv, DepthwiseConv:
			if l.R*l.S == 1 {
				// 1×1 convolutions have no sliding-window overlap and
				// therefore no weight-sharing duplication.
				continue
			}
			e, f := float64(l.OutH()), float64(l.OutW())
			rows := float64(l.R * l.S) // per channel
			total += rows * e * f * float64(l.C)
			unique += float64(l.H * l.W * l.C)
		default:
			// FC layers read each input exactly once per buffer row.
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - unique/total
}
