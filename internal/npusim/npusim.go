// Package npusim is the SFQ-NPU performance simulator of Section IV-B: a
// cycle-based model that executes a DNN's weight mappings on an SFQ NPU
// configuration and reports cycles, throughput, PE utilization and power.
//
// The simulator charges cycles for exactly the mechanics the paper
// identifies as bottlenecks (Section V-A):
//
//   - preparation — weight loading, repositioning data inside
//     shift-register buffers (a monolithic buffer must rotate its entire
//     length; a divided buffer only one chunk), moving partial sums between
//     separate psum/ofmap buffers (integration removes this), and
//     bandwidth-limited DRAM traffic when a layer's batch does not fit
//     on-chip; and
//   - computation — the systolic array streaming B·E·F·K pixels per
//     mapping, with pipeline fill and drain.
package npusim

import (
	"context"
	"fmt"
	"math"

	"supernpu/internal/guard"

	"supernpu/internal/arch"
	"supernpu/internal/estimator"
	"supernpu/internal/faultinject"
	"supernpu/internal/mapper"
	"supernpu/internal/obs"
	"supernpu/internal/parallel"
	"supernpu/internal/sfq"
	"supernpu/internal/simcache"
	"supernpu/internal/srmem"
	"supernpu/internal/workload"
)

// cache memoises Simulate by (config, network, batch) fingerprint. The
// sweeps of Figs. 20–22 and the cross-design tables re-derive the same
// Baseline/TPU references at every point; with the cache each distinct
// simulation runs once per process. Reports returned from Simulate are
// shared between callers and must be treated as read-only.
var cache = simcache.New[*Report]()

// layerCache memoises the core tile walk of simulateLayer beneath the
// whole-simulation cache, keyed by (core projection, layer shape, batch).
// The cached core excludes the per-mapping shift-register unit costs —
// ifmap recirculation and psum inter-buffer movement — which are linear
// in the tile counts and applied per caller (applyUnitCosts), so sweep
// points that vary only buffer division or non-fit-flipping capacity
// share one walk, as do repeated shapes within one network. Nominal runs
// only: faulted runs walk directly, because their operating point keys
// walks no other run reuses (see simulate).
var layerCache = simcache.New[layerCore]()

func init() {
	simcache.Register("npusim", cache)
	simcache.Register("npusim.layer", layerCache)
}

// layerSites counts the compute-layer sites accumulated by nominal
// (fault-free) simulations — each site is one per-layer simulation that
// would run without the layer-grain cache. Divided by the npusim.layer
// cache's miss count it yields the measured dedup factor (EXPERIMENTS.md).
var layerSites = obs.Default.Counter("supernpu_npusim_layer_sites_total",
	"compute-layer sites accumulated by nominal npusim simulations")

// BatchCap is the paper's conservative batch ceiling: Table II never sets a
// batch above 30 even when the buffers would hold more ("there is room to
// increase the batch size while improving performance").
const BatchCap = 30

// MaxBatch returns the largest batch size the design's on-chip buffers hold
// for the network without additional off-chip memory access (Table II).
//
// Three constraints apply per layer:
//   - a monolithic ifmap buffer dedicates one byte lane per input channel
//     (Fig. 18(c)): B·H·W must fit one lane; a divided buffer spreads
//     channels across chunks, so only the total capacity binds;
//   - the output buffer dedicates one byte lane per PE column / filter
//     (Fig. 18(b)): B·E·F must fit one lane;
//   - the result is floored at 1 (a single input always runs, spilling to
//     DRAM) and capped at BatchCap.
func MaxBatch(cfg arch.Config, net workload.Network) int {
	b := BatchCap
	ifLane := cfg.IfmapBufBytes / cfg.ArrayHeight
	outLane := cfg.OutputBufBytes / cfg.ArrayWidth
	for _, l := range net.ComputeLayers() {
		var bIn int
		if cfg.IfmapChunks == 1 {
			bIn = ifLane / (l.H * l.W)
		} else {
			bIn = cfg.IfmapBufBytes / (l.H * l.W * l.C)
		}
		bOut := outLane / (l.OutH() * l.OutW())
		if bIn < b {
			b = bIn
		}
		if bOut < b {
			b = bOut
		}
	}
	if b < 1 {
		return 1
	}
	return b
}

// layerFits reports whether the layer's batch-B activations stay on-chip.
func layerFits(p simcache.LayerProj, l workload.Layer, batch int) bool {
	var bIn int
	if p.IfmapChunks == 1 {
		bIn = p.IfmapBufBytes / p.ArrayHeight / (l.H * l.W)
	} else {
		bIn = p.IfmapBufBytes / (l.H * l.W * l.C)
	}
	bOut := p.OutputBufBytes / p.ArrayWidth / (l.OutH() * l.OutW())
	return batch <= bIn && batch <= bOut
}

// LayerStats is the per-layer simulation outcome.
type LayerStats struct {
	Layer    workload.Layer
	Mappings int

	// Cycle breakdown (Fig. 15): computation vs the preparation classes.
	ComputeCycles   int64
	WeightCycles    int64 // weight loading into the array
	IfmapMoveCycles int64 // shift-register repositioning of ifmap data
	PsumMoveCycles  int64 // ofmap→psum inter-buffer movement
	DRAMCycles      int64 // raw DRAM transfer cycles (overlappable)
	StallCycles     int64 // DRAM cycles not hidden behind on-chip work

	MACs int64
	// BufferBytes counts on-chip buffer bytes streamed (energy model);
	// DRAMBytes counts off-chip traffic.
	BufferBytes int64
	DRAMBytes   int64
}

// PrepCycles is the layer's total preparation time: on-chip data movement
// plus the exposed part of the DRAM traffic. Transfers are double-buffered,
// so only the portion that cannot hide behind on-chip activity stalls the
// array.
func (s LayerStats) PrepCycles() int64 {
	return s.WeightCycles + s.IfmapMoveCycles + s.PsumMoveCycles + s.StallCycles
}

// TotalCycles is the layer's total time.
func (s LayerStats) TotalCycles() int64 { return s.ComputeCycles + s.PrepCycles() }

// resolveStalls computes the exposed DRAM stall after overlapping the raw
// transfer cycles with every on-chip cycle of the layer.
func (s *LayerStats) resolveStalls() {
	onChip := s.ComputeCycles + s.WeightCycles + s.IfmapMoveCycles + s.PsumMoveCycles
	if s.DRAMCycles > onChip {
		s.StallCycles = s.DRAMCycles - onChip
	} else {
		s.StallCycles = 0
	}
}

// Report is the simulation result for one network on one design.
type Report struct {
	Design  arch.Config
	Network string
	Batch   int

	Frequency float64 // Hz, from the estimator
	PeakMACs  float64 // MAC/s

	Layers []LayerStats

	TotalCycles   int64
	ComputeCycles int64
	PrepCycles    int64
	MACs          int64

	// Time is the batch latency in seconds; Throughput the effective
	// MAC/s; PEUtilization effective/peak.
	Time          float64
	Throughput    float64
	PEUtilization float64

	// Power (W): static from the estimator; dynamic from activity.
	StaticPower  float64
	DynamicPower float64

	// Trace is the access-trace analyzer output (Fig. 14): the per-unit
	// activity counts the power model consumes.
	Trace Trace
	// Power is the dynamic power breakdown by source.
	Power PowerBreakdown

	// Faults summarises injected-fault activity; nil for nominal runs, so
	// nominal reports are byte-identical to the pre-fault model.
	Faults *FaultStats
}

// FaultStats aggregates the run's injected faults and their modelled cost.
type FaultStats struct {
	// Model is the fault model's String() rendering.
	Model string
	// BitFlips is the count of datapath MACs corrupted by bit flips
	// (unrecovered; they degrade the accuracy proxy).
	BitFlips int64
	// DroppedPulses is the count of shift-register pulses lost to thermal
	// drops; each forces a chunk recirculation.
	DroppedPulses int64
	// RetryCycles is the recirculation cost charged for the drops (already
	// included in the report's prep cycles and throughput).
	RetryCycles int64
	// Accuracy is the first-order inference-accuracy proxy: the compounded
	// probability, across layers, that an output element saw no corrupted
	// MAC. 1.0 means no datapath corruption.
	Accuracy float64
}

// Trace aggregates the simulator's access trace: what each unit did over
// the run.
type Trace struct {
	Mappings    int   // weight mappings executed
	MACs        int64 // useful multiply-accumulates
	BufferBytes int64 // on-chip buffer bytes streamed (ifmap + output)
	DRAMBytes   int64 // off-chip traffic
	DAUPixels   int64 // pixels delivered through the data alignment unit
	WeightLoads int64 // weight-shift cycles into the array
}

// PowerBreakdown splits the dynamic power by switching source.
type PowerBreakdown struct {
	Clock  float64 // clock distribution pulsing every clocked PE cell
	MAC    float64 // datapath switching
	Buffer float64 // shift-register bit movement
	DAU    float64 // selection and delay-cascade switching
}

// Total is the summed dynamic power.
func (p PowerBreakdown) Total() float64 { return p.Clock + p.MAC + p.Buffer + p.DAU }

// TotalPower is static plus dynamic chip power (cooling excluded).
func (r *Report) TotalPower() float64 { return r.StaticPower + r.DynamicPower }

// PrepFraction is preparation cycles over total cycles (Fig. 15).
func (r *Report) PrepFraction() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(r.PrepCycles) / float64(r.TotalCycles)
}

// cyclesPerByte converts DRAM bytes into NPU cycles at frequency f.
func cyclesPerByte(f, bandwidth float64) float64 { return f / bandwidth }

// layerCore is the cached portion of one layer simulation: the tile-walk
// stats without the per-mapping shift-register unit costs, plus the
// continuing-row tile count those costs multiply against.
type layerCore struct {
	Stats       LayerStats // Layer is zeroed; applyUnitCosts restores it
	NonFirstRow int        // tiles that re-inject partial sums
}

// recirculateCycles is the per-mapping ifmap repositioning cost: the data
// consumed by the previous mapping must rotate back to the chunk head
// before it can stream again — a full-buffer rotation when monolithic,
// one chunk when divided. The geometry is rebuilt from the projection
// exactly as arch.Config.IfmapBuf builds it.
func recirculateCycles(p simcache.LayerProj) int64 {
	ifBuf := srmem.Config{WidthBytes: p.ArrayHeight, CapacityBytes: p.IfmapBufBytes, Chunks: p.IfmapChunks}
	return int64(ifBuf.RecirculateCycles())
}

// psumMoveCycles is the per-continuing-tile partial-sum re-injection
// cost. Separate psum/ofmap buffers pay the inter-buffer walk
// (Fig. 16 ①); the integrated buffer just re-selects the chunk, for
// free. Geometries rebuilt exactly as arch.Config.OutputBuf/PsumBuf.
func psumMoveCycles(p simcache.LayerProj) int64 {
	if p.IntegratedOutput {
		return 0
	}
	outBuf := srmem.Config{WidthBytes: p.ArrayWidth, CapacityBytes: p.OutputBufBytes, Chunks: p.OutputChunks}
	psumBuf := srmem.Config{WidthBytes: p.ArrayWidth, CapacityBytes: p.PsumBufBytes, Chunks: 1}
	return int64(outBuf.InterBufferMoveCycles(psumBuf, p.PsumBufBytes))
}

// coreProj reduces the full projection to the fields the cached tile walk
// reads, resolving the layer's batch-fit decision into its Fits bit. The
// buffer capacities and divisions drop out here: beyond the fit bit they
// only reach a layer through the per-mapping unit costs above.
func coreProj(p simcache.LayerProj, l workload.Layer, batch int) simcache.LayerCoreProj {
	return simcache.LayerCoreProj{
		ArrayHeight: p.ArrayHeight, ArrayWidth: p.ArrayWidth,
		Registers:      p.Registers,
		PipelineStages: p.PipelineStages,
		CyclesPerByte:  p.CyclesPerByte,
		Fits:           layerFits(p, l, batch),
	}
}

// simulateLayerCore runs the weight-mapping loop of one layer, polling
// for cancellation once per weight mapping so a canceled simulation stops
// mid-layer instead of charging the full tile walk.
//
// It reads the configuration only through the reduced core projection
// (and the layer only through shape-derived quantities), which is what
// makes the layer-grain cache key complete by construction: two configs
// with equal core projections cannot produce different cores here.
func simulateLayerCore(ctx context.Context, cp simcache.LayerCoreProj, l workload.Layer, batch int) (layerCore, error) {
	var core layerCore
	st := &core.Stats
	var w guard.Watch
	w.Arm(ctx)
	defer w.Disarm()

	ef := int64(l.OutH() * l.OutW())
	peStages := cp.PipelineStages
	cpb := cp.CyclesPerByte

	for _, t := range mapper.Tiles(l, cp.ArrayHeight, cp.ArrayWidth, cp.Registers) {
		if w.Canceled() {
			return layerCore{}, w.Err()
		}
		st.Mappings++

		// Computation: the array streams B·E·F pixels, each presented
		// `regs` consecutive cycles, plus pipeline fill and drain through
		// the array's gate-level stages.
		st.ComputeCycles += int64(batch)*ef*int64(t.Regs) + int64(t.Rows*peStages+t.Cols+t.Regs)

		// Weights: stream from DRAM through the weight buffer, then shift
		// down the columns (one pass per engaged register plane).
		wBytes := int64(t.Rows) * int64(t.Filters)
		st.WeightCycles += int64(t.Rows * t.Regs)
		st.DRAMCycles += int64(float64(wBytes) * cpb)
		st.DRAMBytes += wBytes

		// Ifmap streaming (the recirculation charge itself is a per-mapping
		// unit cost, applied by applyUnitCosts).
		st.BufferBytes += int64(batch) * int64(l.H*l.W*t.Channels)

		// Continuing row tiles re-inject the previous partial sums; the
		// per-tile movement charge is likewise applied by applyUnitCosts.
		if !t.FirstRowTile {
			core.NonFirstRow++
		}
		st.BufferBytes += int64(batch) * ef * int64(t.Filters)

		// Spilled activations: when the batch does not fit, every mapping
		// re-fetches its ifmap slice from DRAM.
		if !cp.Fits {
			spill := int64(batch) * int64(l.H*l.W*t.Channels)
			st.DRAMCycles += int64(float64(spill) * cpb)
			st.DRAMBytes += spill
		}

		st.MACs += t.MACs(batch, ef)
	}
	return core, nil
}

// applyUnitCosts completes a (possibly cached) core into the caller's
// LayerStats. The ifmap recirculation and psum movement charges are
// constant per (continuing) mapping, so they distribute over the walk as
// exact integer multiples — byte-identical to charging them inside the
// loop — and the caller's own layer is restored so reports keep their
// display names.
func applyUnitCosts(core layerCore, p simcache.LayerProj, l workload.Layer) LayerStats {
	st := core.Stats
	st.Layer = l
	st.IfmapMoveCycles += int64(core.Stats.Mappings) * recirculateCycles(p)
	st.PsumMoveCycles += int64(core.NonFirstRow) * psumMoveCycles(p)
	return st
}

// simulateLayer runs one layer simulation directly, bypassing the
// layer-grain cache: the core tile walk plus the per-mapping unit costs.
func simulateLayer(ctx context.Context, p simcache.LayerProj, l workload.Layer, batch int) (LayerStats, error) {
	if l.Kind == workload.Pool {
		return LayerStats{Layer: l}, nil
	}
	core, err := simulateLayerCore(ctx, coreProj(p, l, batch), l, batch)
	if err != nil {
		return LayerStats{}, err
	}
	return applyUnitCosts(core, p, l), nil
}

// simulateLayerCached serves one layer simulation through the layer-grain
// cache. The cached core is computed from a name-free rehydration of the
// layer's shape, so every layer of that shape — in this network, any
// other network, or any sweep point whose core projection matches —
// shares it.
func simulateLayerCached(ctx context.Context, p simcache.LayerProj, l workload.Layer, batch int) (LayerStats, error) {
	if l.Kind == workload.Pool {
		return LayerStats{Layer: l}, nil
	}
	shape := l.Shape()
	cp := coreProj(p, l, batch)
	core, err := layerCache.GetOrCompute(simcache.LayerKey(cp, shape, batch), func() (layerCore, error) {
		return simulateLayerCore(ctx, cp, shape.Layer(""), batch)
	})
	if err != nil {
		return LayerStats{}, err
	}
	return applyUnitCosts(core, p, l), nil
}

// Simulate runs the network at the given batch size on the design and
// returns the full report. A batch of 0 selects MaxBatch automatically —
// the batch-0 convention every sweep driver relies on; negative batches
// are rejected.
//
// Results are memoised by (config, network, batch): repeated calls with the
// same inputs return one shared *Report, which callers must treat as
// read-only. Validation and batch resolution happen inside the memoised
// computation, so a cache hit costs only the key construction and lookup.
// Cancellation of ctx aborts the per-layer fan-out and the per-tile mapping
// loop; a canceled computation is evicted from the cache, not memoised.
func Simulate(ctx context.Context, cfg arch.Config, net workload.Network, batch int) (*Report, error) {
	return SimulateFaulted(ctx, cfg, net, batch, nil)
}

// SimulateFaulted is Simulate under a fault model: the estimator reruns at
// the perturbed operating point (margin erosion lowers the frequency),
// thermal pulse drops charge chunk-recirculation retry cycles, datapath bit
// flips feed the accuracy proxy, and with probability SimFail the whole
// simulation aborts with a *faultinject.FaultError — the hook the serving
// pipeline's degraded path exercises. Results are memoised by (config,
// network, batch, fault key); a nil or disabled model keys to the empty
// string, which makes it Simulate. Every fault draw is site-keyed, so the
// report is byte-identical across runs and worker counts.
func SimulateFaulted(ctx context.Context, cfg arch.Config, net workload.Network, batch int, fm *faultinject.Model) (*Report, error) {
	if batch < 0 {
		return nil, fmt.Errorf("npusim: batch %d must be non-negative (0 selects MaxBatch)", batch)
	}
	return cache.GetOrCompute(simcache.SimKey(cfg, net, batch)+fm.Key(), func() (*Report, error) {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if err := net.Validate(); err != nil {
			return nil, err
		}
		if batch == 0 {
			// Re-enter through the cache so the batch-0 entry and the
			// resolved-batch entry share one computed report.
			return SimulateFaulted(ctx, cfg, net, MaxBatch(cfg, net), fm)
		}
		return simulate(ctx, cfg, net, batch, fm)
	})
}

// simSite names one (design, network, batch) simulation for fault draws.
func simSite(cfg arch.Config, net workload.Network, batch int) string {
	return fmt.Sprintf("npusim/%s/%s/%d", cfg.Name, net.Name, batch)
}

// simulate is the uncached simulation. Layers are mutually independent —
// every cycle charge is a function of the layer's own shape — so their
// LayerStats fan out across workers; the report accumulates them in layer
// order afterwards, keeping the totals bit-identical to a serial run.
//
// Nominal runs serve each site through the layer-grain cache, so repeated
// shapes dedup there: the first site of a shape misses and every later
// one hits, waiting on the entry if it is still being computed. Faulted
// runs walk each site directly. Their pulse-drop retries and bit flips are
// drawn after the walk, keyed by the layer's own site, so the walk does
// not depend on the fault model and the fan-out order cannot perturb the
// result. The bypass is a memory choice: a fault model that erodes margins
// or spreads Ic moves the operating point, and with it the DRAM rate in
// the layer key, so its cached walks would be entries no other run reuses
// (DESIGN.md §15 has the measurement).
func simulate(ctx context.Context, cfg arch.Config, net workload.Network, batch int, fm *faultinject.Model) (*Report, error) {
	site := simSite(cfg, net, batch)
	if fm.FailsSimulation(site) {
		return nil, &faultinject.FaultError{Site: site}
	}
	est, err := estimator.EstimateFaulted(ctx, cfg, fm)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Design: cfg, Network: net.Name, Batch: batch,
		Frequency: est.Frequency, PeakMACs: est.PeakMACs,
		StaticPower: est.StaticPower,
	}
	cpb := cyclesPerByte(est.Frequency, cfg.MemoryBandwidth)
	proj := simcache.NPULayerProj(cfg, cpb)

	type job struct {
		idx int // position in net.Layers (0 = network entry)
		l   workload.Layer
	}
	type layerOut struct {
		st LayerStats
		// injected-fault tallies for this layer
		flips, drops, retry int64
		// cleanFrac is the fraction of the layer's MACs untouched by flips.
		cleanFrac float64
	}
	var jobs []job
	for i, l := range net.Layers {
		if l.ComputeLayer() {
			jobs = append(jobs, job{i, l})
		}
	}
	if !fm.Enabled() {
		layerSites.Add(int64(len(jobs)))
	}
	outs, err := parallel.MapContext(ctx, len(jobs), func(ctx context.Context, k int) (layerOut, error) {
		j := jobs[k]
		var st LayerStats
		var err error
		if fm.Enabled() {
			st, err = simulateLayer(ctx, proj, j.l, batch)
		} else {
			st, err = simulateLayerCached(ctx, proj, j.l, batch)
		}
		if err != nil {
			return layerOut{}, err
		}

		// Layer input delivery: the first compute layer streams its
		// inputs from DRAM; later layers transfer the previous output
		// buffer contents into the ifmap buffer on-chip.
		inBytes := int64(batch) * j.l.IfmapBytes()
		if j.idx == 0 {
			st.DRAMCycles += int64(float64(inBytes) * cpb)
			st.DRAMBytes += inBytes
		} else {
			width := min(cfg.IfmapBuf().WidthBytes, cfg.OutputBuf().WidthBytes)
			st.IfmapMoveCycles += inBytes / int64(width)
			st.BufferBytes += inBytes
		}

		o := layerOut{cleanFrac: 1}
		if fm.Enabled() {
			lsite := site + "/layer/" + j.l.Name
			// Thermal pulse drops: every byte streamed through the
			// shift-register buffers is one shift-in plus one shift-out;
			// each dropped pulse recirculates the ifmap chunk to replay
			// the lost entry. The retry cycles land in the ifmap-movement
			// class, where the replay physically happens.
			o.drops, o.retry = cfg.IfmapBuf().DropRetryCycles(fm, 2*st.BufferBytes, lsite+"/drop")
			st.IfmapMoveCycles += o.retry
			// Datapath bit flips corrupt MACs without costing cycles.
			o.flips = fm.Count(fm.BitFlip, st.MACs, lsite+"/flip")
			if st.MACs > 0 {
				o.cleanFrac = 1 - float64(o.flips)/float64(st.MACs)
			}
		}
		st.resolveStalls()
		o.st = st
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	accuracy := 1.0
	var faults FaultStats
	for _, o := range outs {
		st := o.st
		rep.Layers = append(rep.Layers, st)
		rep.ComputeCycles += st.ComputeCycles
		rep.PrepCycles += st.PrepCycles()
		rep.MACs += st.MACs
		rep.Trace.Mappings += st.Mappings
		rep.Trace.BufferBytes += st.BufferBytes
		rep.Trace.DRAMBytes += st.DRAMBytes
		rep.Trace.WeightLoads += st.WeightCycles
		faults.BitFlips += o.flips
		faults.DroppedPulses += o.drops
		faults.RetryCycles += o.retry
		accuracy *= o.cleanFrac
	}
	if fm.Enabled() {
		faults.Model = fm.String()
		faults.Accuracy = math.Max(0, accuracy)
		rep.Faults = &faults
	}
	// Final results drain to DRAM.
	last := net.ComputeLayers()[len(net.ComputeLayers())-1]
	outBytes := int64(batch) * last.OfmapBytes()
	rep.PrepCycles += int64(float64(outBytes) * cpb)
	rep.Trace.DRAMBytes += outBytes
	rep.Trace.MACs = rep.MACs
	rep.Trace.DAUPixels = rep.ComputeCycles * int64(cfg.ArrayHeight) / int64(cfg.PECfg().PipelineStages())

	rep.TotalCycles = rep.ComputeCycles + rep.PrepCycles
	rep.Time = float64(rep.TotalCycles) / est.Frequency
	rep.Throughput = float64(rep.MACs) / rep.Time
	rep.PEUtilization = rep.Throughput / est.PeakMACs
	rep.Power = dynamicPower(cfg, est, rep)
	rep.DynamicPower = rep.Power.Total()
	// A report with a non-finite headline number means the model itself
	// blew up (zero frequency, empty network); fail typed instead of
	// letting NaNs leak into exhibits and serving responses.
	for _, v := range [...]float64{rep.Time, rep.Throughput, rep.PEUtilization, rep.DynamicPower} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("npusim: %s/%s/b%d produced a non-finite report: %w",
				cfg.Name, net.Name, batch, guard.ErrNonFinite)
		}
	}
	return rep, nil
}

// dynamicPower models the chip's switching power over the run: the clock
// network pulses every clocked cell of the PE array every cycle; MACs add
// data switching; buffer traffic adds per-byte shift energy; the DAU adds
// per-delivered-pixel energy.
func dynamicPower(cfg arch.Config, est *estimator.Result, rep *Report) PowerBreakdown {
	lib := sfq.NewLibrary(sfq.AIST10(), cfg.Tech)
	pc := cfg.PECfg()
	var p PowerBreakdown

	// Clock distribution: one splitter pulse per clocked PE cell per cycle.
	clockedPerPE := clockedCells(pc)
	clockEnergyPerCycle := float64(cfg.PEs()) * float64(clockedPerPE) * lib.AccessEnergy(sfq.Splitter)
	p.Clock = clockEnergyPerCycle * est.Frequency

	// Data switching in the MACs.
	p.MAC = float64(rep.MACs) / rep.Time * pc.MACEnergy(lib)

	// Buffer streaming: eight bit-cells switch per byte moved in or out.
	bitCell := lib.AccessEnergy(sfq.DFF) + lib.AccessEnergy(sfq.Splitter) + 2*lib.AccessEnergy(sfq.JTL)
	p.Buffer = float64(rep.Trace.BufferBytes) / rep.Time * 8 * bitCell

	// DAU delivery: one selected pixel per PE row per compute wavefront.
	dauU, _ := est.Unit("DAU")
	p.DAU = float64(rep.Trace.DAUPixels) / rep.Time * dauU.AccessEnergy

	return p
}

// clockedCells counts the clocked cells of one PE (its clock-tree load).
func clockedCells(pc interface{ Inventory() sfq.Inventory }) int {
	inv := pc.Inventory()
	n := 0
	for _, k := range []sfq.GateKind{sfq.AND, sfq.FA, sfq.DFF, sfq.NDRO, sfq.MUXCell, sfq.XOR, sfq.OR, sfq.NOT, sfq.DFFB} {
		n += inv[k]
	}
	return n
}
