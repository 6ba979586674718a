// Package scalesim is a cycle-based model of a conventional CMOS
// weight-stationary systolic DNN accelerator — the SCALE-SIM-equivalent the
// paper uses to estimate the TPU core it compares SuperNPU against
// (Section VI-A): a 256×256 PE array at 0.7 GHz with a 24 MB unified SRAM
// buffer, 300 GB/s of HBM bandwidth and 40 W average power.
//
// The mapping policy is the SFQ simulator's (package mapper, one register
// plane per PE), but SRAM removes the shift-register mechanics: no
// repositioning rotations, no inter-buffer psum walks — the CMOS design's
// buffers are random access.
package scalesim

import (
	"context"
	"fmt"
	"math"

	"supernpu/internal/mapper"
	"supernpu/internal/simcache"
	"supernpu/internal/workload"
)

// cache memoises Simulate by (config, network, batch): the TPU
// reference evaluation repeats for every design row of Fig. 23 and
// Table III. Reports are shared between callers and must be treated as
// read-only.
var cache = simcache.New[*Report]("scalesim")

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
	var kb simcache.KeyBuf
	key := appendConfigKey(kb[:0], cfg)
	key = simcache.AppendNetworkKey(key, net)
	key = simcache.AppendInt(key, int64(batch))
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

// appendConfigKey appends the binary memo key of a CMOS configuration in
// simcache's encoding. It lives here because simcache cannot import this
// package; keep it in step with Config (the cachekey lint rule checks that
// every field is read, and TestConfigKeyDistinguishesEveryField mutates
// each one).
func appendConfigKey(b []byte, c Config) []byte {
	b = simcache.AppendString(b, c.Name)
	b = simcache.AppendInt(b, int64(c.ArrayHeight))
	b = simcache.AppendInt(b, int64(c.ArrayWidth))
	b = simcache.AppendFloat(b, c.Frequency)
	b = simcache.AppendInt(b, c.BufferBytes)
	b = simcache.AppendFloat(b, c.Bandwidth)
	return simcache.AppendFloat(b, c.Power)
}

// layerCost is one compute layer's charge set: the cycle classes
// accumulated before the per-layer stall comparison, plus its MACs.
type layerCost struct {
	Compute, DRAM, MACs int64
}

// chargeLayer charges one compute layer's weight mappings in closed form:
// the single-register tile classes of mapper.Classes, each costing its
// count times the charge of one of its tiles. Every per-tile charge is an
// integer, each DRAM truncation included, so count × charge equals the
// tile-by-tile sum exactly (walk_test.go keeps the tile walk as the
// reference).
func chargeLayer(cfg Config, l workload.Layer, batch int) layerCost {
	cpb := cfg.Frequency / cfg.Bandwidth
	ef := int64(l.OutH() * l.OutW())
	fits := int64(batch)*l.WorkingSetBytes() <= cfg.BufferBytes

	var cost layerCost
	for _, c := range mapper.Classes(l, cfg.ArrayHeight, cfg.ArrayWidth, 1) {
		n := int64(c.Count)
		// Streaming compute plus array fill/drain and column loading.
		cost.Compute += n * (int64(batch)*ef + int64(2*c.Rows+c.Filters))
		// Weight fetch.
		wBytes := int64(c.Rows) * int64(c.Filters)
		cost.DRAM += n * int64(float64(wBytes)*cpb)
		// Spilled activations re-fetch per mapping.
		if !fits {
			spill := int64(batch) * int64(l.H*l.W*c.Channels)
			cost.DRAM += n * int64(float64(spill)*cpb)
		}
		cost.MACs += n * int64(batch) * ef * int64(c.Rows) * int64(c.Filters)
	}
	return cost
}

// simulate is the uncached per-layer loop, polling for cancellation once per
// layer. Input delivery and stall resolution are per layer site, on top
// of the layer's charge.
func simulate(ctx context.Context, cfg Config, net workload.Network, batch int) (*Report, error) {
	rep := &Report{Config: cfg, Network: net.Name, Batch: batch}
	cpb := cfg.Frequency / cfg.Bandwidth

	first := true
	for _, l := range net.Layers {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !l.ComputeLayer() {
			continue
		}
		cost := chargeLayer(cfg, l, batch)
		layerCompute, layerDRAM := cost.Compute, cost.DRAM
		rep.MACs += cost.MACs
		// The first compute layer's inputs arrive from DRAM.
		if first {
			layerDRAM += int64(float64(int64(batch)*l.IfmapBytes()) * cpb)
			first = false
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
			return nil, fmt.Errorf("scalesim: %s/%s/b%d produced a non-finite report",
				cfg.Name, net.Name, batch)
		}
	}
	return rep, nil
}
