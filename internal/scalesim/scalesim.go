// Package scalesim is a cycle-based model of a conventional CMOS
// weight-stationary systolic DNN accelerator — the SCALE-SIM-equivalent the
// paper uses to estimate the TPU core it compares SuperNPU against
// (Section VI-A): a 256×256 PE array at 0.7 GHz with a 24 MB unified SRAM
// buffer, 300 GB/s of HBM bandwidth and 40 W average power.
//
// The mapping loop mirrors the SFQ simulator's, but SRAM removes the
// shift-register mechanics: no repositioning rotations, no inter-buffer
// psum walks — the CMOS design's buffers are random access.
package scalesim

import (
	"context"
	"fmt"
	"math"

	"supernpu/internal/guard"
	"supernpu/internal/simcache"
	"supernpu/internal/workload"
)

// cache memoises Simulate by (config, network, batch) fingerprint: the TPU
// reference evaluation repeats for every design row of Fig. 23 and
// Table III. Reports are shared between callers and must be treated as
// read-only.
var cache = simcache.New[*Report]()

// layerCache memoises the per-layer tile walk beneath the whole-simulation
// cache, keyed by (projection, layer shape, batch): repeated shapes within
// a network and across sweep points that hold the projection constant
// share one walk.
var layerCache = simcache.New[layerCost]()

func init() {
	simcache.Register("scalesim", cache)
	simcache.Register("scalesim.layer", layerCache)
}

// Config describes the CMOS accelerator.
type Config struct {
	Name                    string
	ArrayHeight, ArrayWidth int
	Frequency               float64 // Hz
	BufferBytes             int64   // unified on-chip buffer
	Bandwidth               float64 // bytes/s
	Power                   float64 // average chip power (W)
}

// TPU returns the TPU-core configuration of Table I.
func TPU() Config {
	return Config{
		Name:        "TPU",
		ArrayHeight: 256, ArrayWidth: 256,
		Frequency:   0.7e9,
		BufferBytes: 24 << 20,
		Bandwidth:   300e9,
		Power:       40,
	}
}

// PeakMACs is the array's peak MAC rate.
func (c Config) PeakMACs() float64 {
	return float64(c.ArrayHeight*c.ArrayWidth) * c.Frequency
}

// MaxBatch applies the paper's TPU batch rule: the whole batch's largest
// per-layer working set must fit the unified buffer (Table II: AlexNet 22,
// VGG16 3).
func (c Config) MaxBatch(net workload.Network) int {
	return net.MaxBatch(c.BufferBytes)
}

// Report is the simulation outcome.
type Report struct {
	Config  Config
	Network string
	Batch   int

	TotalCycles   int64
	ComputeCycles int64
	// DRAMCycles is the raw transfer time; StallCycles the exposed part
	// after overlapping transfers with computation (double buffering).
	DRAMCycles  int64
	StallCycles int64
	MACs        int64

	Time          float64
	Throughput    float64 // effective MAC/s
	PEUtilization float64
}

// Simulate runs the network at the given batch (0 = MaxBatch). Results are
// memoised by (config, network, batch); repeated calls return one shared
// *Report, which callers must treat as read-only. Validation and batch
// resolution happen inside the memoised computation, so a cache hit costs
// only the key construction and lookup. Cancellation of ctx aborts the
// mapping loop between layers; a canceled computation is evicted from the
// cache, not memoised.
func Simulate(ctx context.Context, cfg Config, net workload.Network, batch int) (*Report, error) {
	if batch < 0 {
		return nil, fmt.Errorf("scalesim: batch %d must be non-negative (0 selects MaxBatch)", batch)
	}
	key := simcache.Fingerprint(cfg, simcache.NetworkKey(net), batch)
	return cache.GetOrCompute(key, func() (*Report, error) {
		if err := net.Validate(); err != nil {
			return nil, err
		}
		if batch == 0 {
			// Re-enter through the cache so the batch-0 entry and the
			// resolved-batch entry share one computed report.
			return Simulate(ctx, cfg, net, cfg.MaxBatch(net))
		}
		return simulate(ctx, cfg, net, batch)
	})
}

// layerCost is one compute layer's cached charge set: the cycle classes
// accumulated before the per-layer stall comparison, plus its MACs.
type layerCost struct {
	Compute, DRAM, MACs int64
}

// simulateLayer charges one compute layer's tile walk. It reads the
// configuration only through its ScaleProj projection and the layer only
// through its shape, which is what makes the layer-grain key complete by
// construction. Every truncation stays per-tile, bit-identical to the
// pre-cache inline loop.
func simulateLayer(p simcache.ScaleProj, s workload.Shape, batch int) layerCost {
	l := s.Layer("")
	h, w := p.ArrayHeight, p.ArrayWidth
	cpb := p.CyclesPerByte
	ef := int64(l.OutH() * l.OutW())
	fits := int64(batch)*l.WorkingSetBytes() <= p.BufferBytes

	type tile struct{ rows, filters, channels int }
	var tiles []tile
	if l.Kind == workload.DepthwiseConv {
		for c := 0; c < l.C; c++ {
			tiles = append(tiles, tile{rows: min(l.R*l.S, h), filters: 1, channels: 1})
		}
	} else {
		rsc := l.R * l.S * l.C
		for rt := 0; rt < (rsc+h-1)/h; rt++ {
			rows := min(h, rsc-rt*h)
			for m := 0; m < l.M; m += w {
				tiles = append(tiles, tile{
					rows: rows, filters: min(w, l.M-m),
					channels: (rows + l.R*l.S - 1) / (l.R * l.S),
				})
			}
		}
	}

	var cost layerCost
	for _, t := range tiles {
		// Streaming compute plus array fill/drain and column loading.
		cost.Compute += int64(batch)*ef + int64(2*t.rows+t.filters)
		// Weight fetch.
		wBytes := int64(t.rows) * int64(t.filters)
		cost.DRAM += int64(float64(wBytes) * cpb)
		// Spilled activations re-fetch per mapping.
		if !fits {
			spill := int64(batch) * int64(l.H*l.W*t.channels)
			cost.DRAM += int64(float64(spill) * cpb)
		}
		cost.MACs += int64(batch) * ef * int64(t.rows) * int64(t.filters)
	}
	return cost
}

// simulateLayerCached serves one layer's charges through the layer-grain
// cache.
func simulateLayerCached(p simcache.ScaleProj, s workload.Shape, batch int) layerCost {
	c, _ := layerCache.GetOrCompute(simcache.ScaleLayerKey(p, s, batch),
		func() (layerCost, error) { return simulateLayer(p, s, batch), nil })
	return c
}

// simulate is the uncached mapping loop, polling for cancellation once per
// layer. Per-layer charges come through the layer-grain cache; the
// serial walk dedups repeated shapes automatically (first occurrence
// misses, the rest hit). Input delivery and stall resolution stay per
// site, outside the cached function.
func simulate(ctx context.Context, cfg Config, net workload.Network, batch int) (*Report, error) {
	rep := &Report{Config: cfg, Network: net.Name, Batch: batch}
	cpb := cfg.Frequency / cfg.Bandwidth
	proj := simcache.ScaleProj{
		ArrayHeight: cfg.ArrayHeight, ArrayWidth: cfg.ArrayWidth,
		BufferBytes: cfg.BufferBytes, CyclesPerByte: cpb,
	}

	var watch guard.Watch
	watch.Arm(ctx)
	defer watch.Disarm()
	for i, l := range net.Layers {
		if watch.Canceled() {
			return nil, watch.Err()
		}
		if !l.ComputeLayer() {
			continue
		}
		cost := simulateLayerCached(proj, l.Shape(), batch)
		layerCompute, layerDRAM := cost.Compute, cost.DRAM
		rep.MACs += cost.MACs
		// First layer's inputs arrive from DRAM.
		if i == 0 {
			layerDRAM += int64(float64(int64(batch)*l.IfmapBytes()) * cpb)
		}
		rep.ComputeCycles += layerCompute
		rep.DRAMCycles += layerDRAM
		if layerDRAM > layerCompute {
			rep.StallCycles += layerDRAM - layerCompute
		}
	}

	rep.TotalCycles = rep.ComputeCycles + rep.StallCycles
	rep.Time = float64(rep.TotalCycles) / cfg.Frequency
	rep.Throughput = float64(rep.MACs) / rep.Time
	rep.PEUtilization = rep.Throughput / cfg.PeakMACs()
	for _, v := range [...]float64{rep.Time, rep.Throughput, rep.PEUtilization} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("scalesim: %s/%s/b%d produced a non-finite report: %w",
				cfg.Name, net.Name, batch, guard.ErrNonFinite)
		}
	}
	return rep, nil
}
