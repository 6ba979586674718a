package core

import (
	"context"
	"fmt"
	"math"

	"supernpu/internal/arch"
	"supernpu/internal/estimator"
	"supernpu/internal/faultinject"
	"supernpu/internal/npusim"
	"supernpu/internal/parallel"
	"supernpu/internal/workload"
)

// geomean of a slice (the figures' cross-workload aggregate).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// SweepPoint is one design point of an exploration sweep, normalised to the
// Baseline design.
type SweepPoint struct {
	Label string
	// SingleBatch and MaxBatch are geometric-mean speedups over the
	// Baseline across the six workloads at batch 1 and at each design's
	// maximum batch.
	SingleBatch float64
	MaxBatch    float64
	// AreaRel is the design's area relative to the Baseline.
	AreaRel float64
	Config  arch.Config
}

// baselineThroughputs returns each workload's Baseline batch-1 throughput,
// the normalisation reference of Figs. 20–22, under the sweep's fault model.
func baselineThroughputs(ctx context.Context, nets []workload.Network, fm *faultinject.Model) (map[string]float64, error) {
	tputs := make([]float64, len(nets))
	err := parallel.ForEachContext(ctx, len(nets), func(ctx context.Context, i int) error {
		r, err := npusim.SimulateFaulted(ctx, arch.Baseline(), nets[i], 1, fm)
		if err != nil {
			return err
		}
		tputs[i] = r.Throughput
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for i, net := range nets {
		out[net.Name] = tputs[i]
	}
	return out, nil
}

// sweep evaluates one configuration against the Baseline reference. The six
// workloads simulate concurrently; the geomean consumes their speedups in
// workload order, so the result is bit-identical to a serial evaluation.
// nets is shared with the sweep's other points and only read.
func sweep(ctx context.Context, cfg arch.Config, nets []workload.Network, base map[string]float64, baseArea float64, fm *faultinject.Model) (SweepPoint, error) {
	s1 := make([]float64, len(nets))
	sm := make([]float64, len(nets))
	err := parallel.ForEachContext(ctx, len(nets), func(ctx context.Context, i int) error {
		r1, err := npusim.SimulateFaulted(ctx, cfg, nets[i], 1, fm)
		if err != nil {
			return err
		}
		rm, err := npusim.SimulateFaulted(ctx, cfg, nets[i], 0, fm)
		if err != nil {
			return err
		}
		ref := base[nets[i].Name]
		s1[i] = r1.Throughput / ref
		sm[i] = rm.Throughput / ref
		return nil
	})
	if err != nil {
		return SweepPoint{}, err
	}
	est, err := estimator.EstimateFaulted(ctx, cfg, fm)
	if err != nil {
		return SweepPoint{}, err
	}
	return SweepPoint{
		Label:       cfg.Name,
		SingleBatch: geomean(s1),
		MaxBatch:    geomean(sm),
		AreaRel:     est.Area28nm / baseArea,
		Config:      cfg,
	}, nil
}

// sweepAll evaluates every configuration as one parallel batch of sweep
// points, preserving input order. The fault model fm perturbs every
// simulation, the Baseline references included, so speedups compare like
// with like.
func sweepAll(ctx context.Context, cfgs []arch.Config, fm *faultinject.Model) ([]SweepPoint, error) {
	nets := workload.All()
	base, err := baselineThroughputs(ctx, nets, fm)
	if err != nil {
		return nil, err
	}
	bArea, err := baselineArea(ctx, fm)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(cfgs))
	err = parallel.ForEachContext(ctx, len(cfgs), func(ctx context.Context, i int) error {
		p, err := sweep(ctx, cfgs[i], nets, base, bArea, fm)
		out[i] = p
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func baselineArea(ctx context.Context, fm *faultinject.Model) (float64, error) {
	est, err := estimator.EstimateFaulted(ctx, arch.Baseline(), fm)
	if err != nil {
		return 0, err
	}
	return est.Area28nm, nil
}

// ExploreDivision reproduces the Fig. 20 sweep: the Baseline, psum/ofmap
// integration (division 2), then growing division degrees. All sweep points
// evaluate concurrently under ctx and the fault model fm (nil is nominal).
func ExploreDivision(ctx context.Context, degrees []int, fm *faultinject.Model) ([]SweepPoint, error) {
	integ := arch.BufferOpt()
	integ.IfmapChunks, integ.OutputChunks = 2, 2
	integ.Name = "+Integration"

	cfgs := []arch.Config{arch.Baseline(), integ}
	for _, d := range degrees {
		c := arch.BufferOpt()
		c.IfmapChunks, c.OutputChunks = d, d
		c.Name = fmt.Sprintf("+Division %d", d)
		cfgs = append(cfgs, c)
	}
	return sweepAll(ctx, cfgs, fm)
}

// WidthPoint is one Fig. 21 resource-balancing configuration: PE-array
// width with the buffer capacity the freed area affords.
type WidthPoint struct {
	Width    int
	BufferMB int
}

// Fig21Points returns the paper's five resource-balancing points.
func Fig21Points() []WidthPoint {
	return []WidthPoint{{256, 24}, {128, 38}, {64, 46}, {32, 50}, {16, 51}}
}

// widthConfig builds a buffer-optimised design at the given array width
// and total buffer capacity, keeping the output chunk length constant as
// the paper does (division degree grows as width shrinks).
func widthConfig(width, bufMB, regs int) arch.Config {
	c := arch.BufferOpt()
	c.Name = fmt.Sprintf("width %d / %d MB / %d regs", width, bufMB, regs)
	c.ArrayWidth = width
	c.Registers = regs
	c.IfmapBufBytes = bufMB * arch.MB / 2
	c.OutputBufBytes = bufMB * arch.MB / 2
	c.OutputChunks = 64 * 256 / width
	return c
}

// ExploreWidth reproduces the Fig. 21 sweep over its five points. All
// sweep points evaluate concurrently under ctx and the fault model fm.
func ExploreWidth(ctx context.Context, fm *faultinject.Model) ([]SweepPoint, error) {
	var cfgs []arch.Config
	for _, wp := range Fig21Points() {
		cfgs = append(cfgs, widthConfig(wp.Width, wp.BufferMB, 1))
	}
	return sweepAll(ctx, cfgs, fm)
}

// ExploreRegisters reproduces the Fig. 22 sweep: registers-per-PE scaling
// at the given array width with its Fig. 21 buffer capacity. A width that
// is not a Fig. 21 point is an ErrUnknownDesign. All sweep points evaluate
// concurrently under ctx and the fault model fm.
func ExploreRegisters(ctx context.Context, width int, regCounts []int, fm *faultinject.Model) ([]SweepPoint, error) {
	bufMB := 0
	for _, wp := range Fig21Points() {
		if wp.Width == width {
			bufMB = wp.BufferMB
		}
	}
	if bufMB == 0 {
		return nil, fmt.Errorf("%w: width %d is not a Fig. 21 point", ErrUnknownDesign, width)
	}
	var cfgs []arch.Config
	for _, r := range regCounts {
		cfgs = append(cfgs, widthConfig(width, bufMB, r))
	}
	return sweepAll(ctx, cfgs, fm)
}
