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
	"supernpu/internal/workload"
)

// cache memoises Simulate by (config, network, batch, fault model). The
// sweeps of Figs. 20–22 and the cross-design tables re-derive the same
// Baseline/TPU references at every point; with the cache each distinct
// simulation runs once per process. Reports returned from Simulate are
// shared between callers and must be treated as read-only.
var cache = simcache.New[*Report]()

func init() { simcache.Register("npusim", cache) }

// layerSites counts the compute-layer sites npusim simulations charge,
// nominal and faulted alike: one per compute layer of every simulated
// network.
var layerSites = obs.Default.Counter("supernpu_npusim_layer_sites_total",
	"compute-layer sites charged by npusim simulations")

// BatchCap is the paper's conservative batch ceiling: Table II never sets a
// batch above 30 even when the buffers would hold more ("there is room to
// increase the batch size while improving performance").
const BatchCap = 30

// MaxBatch returns the largest batch size the design's on-chip buffers hold
// for the network without additional off-chip memory access (Table II):
// the smallest batchBound over its compute layers, floored at 1 (a single
// input always runs, spilling to DRAM) and capped at BatchCap.
func MaxBatch(cfg arch.Config, net workload.Network) int {
	b := BatchCap
	for _, l := range net.Layers {
		if l.ComputeLayer() {
			b = min(b, batchBound(cfg, l))
		}
	}
	return max(b, 1)
}

// batchBound is the largest batch whose activations of layer l stay
// on-chip. Two buffer lanes bind:
//   - a monolithic ifmap buffer dedicates one byte lane per input channel
//     (Fig. 18(c)): B·H·W must fit one lane; a divided buffer spreads
//     channels across chunks, so only the total capacity binds;
//   - the output buffer dedicates one byte lane per PE column / filter
//     (Fig. 18(b)): B·E·F must fit one lane.
func batchBound(cfg arch.Config, l workload.Layer) int {
	var bIn int
	if cfg.IfmapChunks == 1 {
		bIn = cfg.IfmapBufBytes / cfg.ArrayHeight / (l.H * l.W)
	} else {
		bIn = cfg.IfmapBufBytes / (l.H * l.W * l.C)
	}
	bOut := cfg.OutputBufBytes / cfg.ArrayWidth / (l.OutH() * l.OutW())
	return min(bIn, bOut)
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

// chargeLayer charges one compute layer's weight mappings in closed form:
// each tile class of mapper.Classes costs its count times the charge of
// one of its tiles. Every per-tile charge below is an integer computed
// from that tile's own fields, the truncated DRAM cycles included, so
// count × charge equals the tile-by-tile sum exactly, and int64
// wrap-around is the same either way (walk_test.go keeps the tile walk as
// the reference).
func chargeLayer(cfg arch.Config, cpb float64, l workload.Layer, batch int) LayerStats {
	st := LayerStats{Layer: l}
	ef := int64(l.OutH() * l.OutW())
	peStages := cfg.PECfg().PipelineStages()
	fits := batch <= batchBound(cfg, l)
	// Shift-register costs per mapping: the data consumed by the previous
	// mapping rotates back to the chunk head before it can stream again (a
	// full-buffer rotation when monolithic, one chunk when divided), and a
	// continuing row tile re-injects the previous partial sums — an
	// inter-buffer walk with separate psum/ofmap buffers (Fig. 16 ①), free
	// with the integrated buffer.
	recirculate := int64(cfg.IfmapBuf().RecirculateCycles())
	var psumMove int64
	if !cfg.IntegratedOutput {
		psumMove = int64(cfg.OutputBuf().InterBufferMoveCycles(cfg.PsumBuf()))
	}

	for _, c := range mapper.Classes(l, cfg.ArrayHeight, cfg.ArrayWidth, cfg.Registers) {
		n := int64(c.Count)
		st.Mappings += c.Count

		// Computation: the array streams B·E·F pixels, each presented
		// `regs` consecutive cycles, plus pipeline fill and drain through
		// the array's gate-level stages.
		st.ComputeCycles += n * (int64(batch)*ef*int64(c.Regs) + int64(c.Rows*peStages+c.Cols+c.Regs))

		// Weights: stream from DRAM through the weight buffer, then shift
		// down the columns (one pass per engaged register plane).
		wBytes := int64(c.Rows) * int64(c.Filters)
		st.WeightCycles += n * int64(c.Rows*c.Regs)
		st.DRAMCycles += n * int64(float64(wBytes)*cpb)
		st.DRAMBytes += n * wBytes

		// Ifmap streaming and output accumulation through the buffers.
		inBytes := int64(batch) * int64(l.H*l.W*c.Channels)
		st.BufferBytes += n * (inBytes + int64(batch)*ef*int64(c.Filters))
		st.IfmapMoveCycles += n * recirculate
		if !c.FirstRowTile {
			st.PsumMoveCycles += n * psumMove
		}

		// Spilled activations: when the batch does not fit, every mapping
		// re-fetches its ifmap slice from DRAM.
		if !fits {
			st.DRAMCycles += n * int64(float64(inBytes)*cpb)
			st.DRAMBytes += n * inBytes
		}

		st.MACs += n * int64(batch) * ef * int64(c.Rows) * int64(c.Filters)
	}
	return st
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
// Cancellation of ctx aborts the per-layer fan-out between layers; a
// canceled computation is evicted from the cache, not memoised.
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
	var kb simcache.KeyBuf
	key := simcache.AppendFaultKey(simcache.AppendSimKey(kb[:0], cfg, net, batch), fm)
	return cache.GetOrCompute(key, func() (*Report, error) {
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

// faultTally is one compute layer's injected-fault activity: the bit
// flips, the dropped pulses and their recirculation retry cycles.
type faultTally struct{ flips, drops, retry int64 }

// simulate is the uncached simulation. Layers are mutually independent —
// every cycle charge is a function of the layer's own shape — so the
// per-layer pool fan-out charges each compute layer straight into its slot
// of the presized rep.Layers; the report accumulates them in layer order
// afterwards, keeping the totals bit-identical to a serial run. Workers
// write distinct indices, and the pool returns only after every write. The
// fan-out is also where a canceled simulation stops, between layers.
//
// Nominal and faulted runs charge each layer alike. A faulted run's
// pulse-drop retries and bit flips are drawn after the charge, keyed by
// the layer's own site, so the fan-out order cannot perturb the result;
// nominal runs build no site strings and no fault tallies.
func simulate(ctx context.Context, cfg arch.Config, net workload.Network, batch int, fm *faultinject.Model) (*Report, error) {
	var site string
	if fm.Enabled() {
		site = simSite(cfg, net, batch)
		if fm.FailsSimulation(site) {
			return nil, &faultinject.FaultError{Site: site}
		}
	}
	est, err := estimator.EstimateFaulted(ctx, cfg, fm)
	if err != nil {
		return nil, err
	}

	n := 0
	for _, l := range net.Layers {
		if l.ComputeLayer() {
			n++
		}
	}
	rep := &Report{
		Design: cfg, Network: net.Name, Batch: batch,
		Frequency: est.Frequency, PeakMACs: est.PeakMACs,
		StaticPower: est.StaticPower,
		Layers:      make([]LayerStats, 0, n),
	}
	for _, l := range net.Layers {
		if l.ComputeLayer() {
			rep.Layers = append(rep.Layers, LayerStats{Layer: l})
		}
	}
	cpb := cyclesPerByte(est.Frequency, cfg.MemoryBandwidth)
	var tallies []faultTally
	if fm.Enabled() {
		tallies = make([]faultTally, n)
	}

	layerSites.Add(int64(n))
	err = parallel.ForEachContext(ctx, n, func(_ context.Context, k int) error {
		l := rep.Layers[k].Layer
		st := chargeLayer(cfg, cpb, l, batch)

		// Layer input delivery: the first compute layer streams the
		// network's inputs from DRAM; later layers transfer the previous
		// output buffer contents into the ifmap buffer on-chip.
		inBytes := int64(batch) * l.IfmapBytes()
		if k == 0 {
			st.DRAMCycles += int64(float64(inBytes) * cpb)
			st.DRAMBytes += inBytes
		} else {
			width := min(cfg.IfmapBuf().WidthBytes, cfg.OutputBuf().WidthBytes)
			st.IfmapMoveCycles += inBytes / int64(width)
			st.BufferBytes += inBytes
		}

		if tallies != nil {
			t := &tallies[k]
			lsite := site + "/layer/" + l.Name
			// Thermal pulse drops: every byte streamed through the
			// shift-register buffers is one shift-in plus one shift-out;
			// each dropped pulse recirculates the ifmap chunk to replay
			// the lost entry. The retry cycles land in the ifmap-movement
			// class, where the replay physically happens.
			t.drops, t.retry = cfg.IfmapBuf().DropRetryCycles(fm, 2*st.BufferBytes, lsite+"/drop")
			st.IfmapMoveCycles += t.retry
			// Datapath bit flips corrupt MACs without costing cycles.
			t.flips = fm.Count(fm.BitFlip, st.MACs, lsite+"/flip")
		}
		st.resolveStalls()
		rep.Layers[k] = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, st := range rep.Layers {
		rep.ComputeCycles += st.ComputeCycles
		rep.PrepCycles += st.PrepCycles()
		rep.MACs += st.MACs
		rep.Trace.Mappings += st.Mappings
		rep.Trace.BufferBytes += st.BufferBytes
		rep.Trace.DRAMBytes += st.DRAMBytes
		rep.Trace.WeightLoads += st.WeightCycles
	}
	if tallies != nil {
		// The accuracy proxy compounds, in layer order, the fraction of
		// each layer's MACs untouched by flips.
		accuracy := 1.0
		faults := FaultStats{Model: fm.String()}
		for k, t := range tallies {
			faults.BitFlips += t.flips
			faults.DroppedPulses += t.drops
			faults.RetryCycles += t.retry
			if macs := rep.Layers[k].MACs; macs > 0 {
				accuracy *= 1 - float64(t.flips)/float64(macs)
			}
		}
		faults.Accuracy = math.Max(0, accuracy)
		rep.Faults = &faults
	}
	// Final results drain to DRAM from the last compute layer (Validate
	// guarantees there is one).
	outBytes := int64(batch) * rep.Layers[n-1].Layer.OfmapBytes()
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
// per-delivered-pixel energy. Faulted runs read the nominal library too.
func dynamicPower(cfg arch.Config, est *estimator.Result, rep *Report) PowerBreakdown {
	lib := sfq.NominalLibrary(cfg.Tech)
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
