package core

import (
	"context"
	"fmt"
	"math"

	"supernpu/internal/arch"
	"supernpu/internal/checkpoint"
	"supernpu/internal/estimator"
	"supernpu/internal/faultinject"
	"supernpu/internal/npusim"
	"supernpu/internal/parallel"
	"supernpu/internal/simcache"
	"supernpu/internal/workload"
)

// SweepOptions configures the resilience features of the Explore* sweeps.
// The zero value is the plain nominal sweep.
type SweepOptions struct {
	// Fault perturbs every simulation of the sweep (including the Baseline
	// normalisation references, so speedups compare like with like).
	Fault *faultinject.Model
	// Checkpoint, when non-nil, records each completed sweep point under
	// its content key (config text key + fault key) and skips points
	// already present — the resume path after a killed run.
	Checkpoint *checkpoint.Store
}

// ckSweepPoint is the persisted subset of a SweepPoint; the Config is
// refilled from the sweep's own input, so it never round-trips through JSON.
type ckSweepPoint struct {
	Label       string  `json:"label"`
	SingleBatch float64 `json:"single_batch"`
	MaxBatch    float64 `json:"max_batch"`
	AreaRel     float64 `json:"area_rel"`
}

// sweepKey is the checkpoint key of one sweep point: the full configuration
// text key plus the fault-model key, so a resumed run can only reuse
// points computed under identical modeling conditions.
func sweepKey(cfg arch.Config, fm *faultinject.Model) string {
	return "sweep:" + simcache.ConfigKey(cfg) + fm.Key()
}

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
	tputs, err := parallel.MapContext(ctx, len(nets), func(ctx context.Context, i int) (float64, error) {
		r, err := npusim.SimulateFaulted(ctx, arch.Baseline(), nets[i], 1, fm)
		if err != nil {
			return 0, err
		}
		return r.Throughput, nil
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
	type speedups struct{ s1, sm float64 }
	vals, err := parallel.MapContext(ctx, len(nets), func(ctx context.Context, i int) (speedups, error) {
		r1, err := npusim.SimulateFaulted(ctx, cfg, nets[i], 1, fm)
		if err != nil {
			return speedups{}, err
		}
		rm, err := npusim.SimulateFaulted(ctx, cfg, nets[i], 0, fm)
		if err != nil {
			return speedups{}, err
		}
		ref := base[nets[i].Name]
		return speedups{r1.Throughput / ref, rm.Throughput / ref}, nil
	})
	if err != nil {
		return SweepPoint{}, err
	}
	var s1, sm []float64
	for _, v := range vals {
		s1 = append(s1, v.s1)
		sm = append(sm, v.sm)
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

// sweepAllOpts evaluates every configuration as one parallel batch of sweep
// points, preserving input order, with cancellation, fault injection and
// checkpointing. Checkpointed points are returned without any simulation;
// when every point is checkpointed, not even the Baseline references are
// recomputed, so a fully resumed sweep costs zero simulation work.
func sweepAllOpts(ctx context.Context, cfgs []arch.Config, o SweepOptions) ([]SweepPoint, error) {
	out := make([]SweepPoint, len(cfgs))
	var pending []int
	for i, cfg := range cfgs {
		var ck ckSweepPoint
		if o.Checkpoint.Get(sweepKey(cfg, o.Fault), &ck) {
			out[i] = SweepPoint{Label: ck.Label, SingleBatch: ck.SingleBatch,
				MaxBatch: ck.MaxBatch, AreaRel: ck.AreaRel, Config: cfg}
			continue
		}
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		return out, nil
	}
	nets := workload.All()
	base, err := baselineThroughputs(ctx, nets, o.Fault)
	if err != nil {
		return nil, err
	}
	bArea, err := baselineArea(ctx, o.Fault)
	if err != nil {
		return nil, err
	}
	err = parallel.ForEachContext(ctx, len(pending), func(ctx context.Context, k int) error {
		i := pending[k]
		p, err := sweep(ctx, cfgs[i], nets, base, bArea, o.Fault)
		if err != nil {
			return err
		}
		out[i] = p
		return o.Checkpoint.Put(sweepKey(cfgs[i], o.Fault), ckSweepPoint{
			Label: p.Label, SingleBatch: p.SingleBatch, MaxBatch: p.MaxBatch, AreaRel: p.AreaRel,
		})
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
// evaluate concurrently.
func ExploreDivision(degrees []int) ([]SweepPoint, error) {
	return ExploreDivisionOpts(context.Background(), degrees, SweepOptions{})
}

// ExploreDivisionOpts is ExploreDivision with cancellation, fault injection
// and checkpoint/resume.
func ExploreDivisionOpts(ctx context.Context, degrees []int, o SweepOptions) ([]SweepPoint, error) {
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
	return sweepAllOpts(ctx, cfgs, o)
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

// ExploreWidth reproduces the Fig. 21 sweep over the given points. All
// sweep points evaluate concurrently.
func ExploreWidth(points []WidthPoint) ([]SweepPoint, error) {
	return ExploreWidthOpts(context.Background(), points, SweepOptions{})
}

// ExploreWidthOpts is ExploreWidth with cancellation, fault injection and
// checkpoint/resume.
func ExploreWidthOpts(ctx context.Context, points []WidthPoint, o SweepOptions) ([]SweepPoint, error) {
	var cfgs []arch.Config
	for _, wp := range points {
		cfgs = append(cfgs, widthConfig(wp.Width, wp.BufferMB, 1))
	}
	return sweepAllOpts(ctx, cfgs, o)
}

// ExploreRegisters reproduces the Fig. 22 sweep: registers-per-PE scaling
// at the given array width with its Fig. 21 buffer capacity. All sweep
// points evaluate concurrently.
func ExploreRegisters(width int, regCounts []int) ([]SweepPoint, error) {
	return ExploreRegistersOpts(context.Background(), width, regCounts, SweepOptions{})
}

// ExploreRegistersOpts is ExploreRegisters with cancellation, fault
// injection and checkpoint/resume.
func ExploreRegistersOpts(ctx context.Context, width int, regCounts []int, o SweepOptions) ([]SweepPoint, error) {
	bufMB := 46
	if width == 128 {
		bufMB = 38
	}
	var cfgs []arch.Config
	for _, r := range regCounts {
		cfgs = append(cfgs, widthConfig(width, bufMB, r))
	}
	return sweepAllOpts(ctx, cfgs, o)
}
