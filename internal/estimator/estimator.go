// Package estimator is the SFQ-NPU estimator of Section IV-A: the
// three-layer (gate → microarchitecture → architecture) model that derives
// the frequency, power and area of an SFQ-based NPU configuration from the
// cell library and per-unit structure models, and the validation fixtures
// of Fig. 13.
package estimator

import (
	"context"
	"fmt"
	"math"

	"supernpu/internal/arch"
	"supernpu/internal/clocking"
	"supernpu/internal/dau"
	"supernpu/internal/faultinject"
	"supernpu/internal/guard"
	"supernpu/internal/netunit"
	"supernpu/internal/obs"
	"supernpu/internal/pe"
	"supernpu/internal/sfq"
	"supernpu/internal/simcache"
	"supernpu/internal/srmem"
)

// cache memoises Estimate by (configuration, fault model): the simulator calls
// the estimator once per simulation and the sweeps revisit the same handful
// of designs constantly. Results are shared and must be treated read-only.
var cache = simcache.New[*Result]()

func init() { simcache.Register("estimator", cache) }

// Estimation instruments: calls counts every Estimate/EstimateFaulted entry
// (cached or not); the histogram times only cold computes. Write-only from
// this package (obsflow).
var (
	mEstimates   = obs.Default.Counter("supernpu_estimator_estimates_total", "Estimate calls, cache hits included")
	mColdSeconds = obs.Default.Histogram("supernpu_estimator_cold_seconds", "wall time of uncached three-layer estimations", obs.DurationEdges)
)

// logicAreaOverhead is the layout expansion factor of logic-dense units
// (PE array, DAU) over their raw cell area: passive transmission lines,
// bias rails and inter-cell routing roughly double the footprint, as the
// die photographs of the fabricated MAC prototype show (Fig. 12). Regular
// shift-register macros do not pay it.
const logicAreaOverhead = 2.0

// UnitEstimate is the microarchitecture-level estimate of one unit.
type UnitEstimate struct {
	Name string
	// Frequency is the unit's maximum clock frequency; 0 for units with
	// no clocked gate pair of their own (the pure DFF-splitter network).
	Frequency float64
	// StaticPower is the unit's DC bias dissipation (W).
	StaticPower float64
	// Area is the laid-out area (m²) at the native process, including
	// routing overhead for logic units.
	Area float64
	// JJs is the junction count.
	JJs int
	// AccessEnergy is the dynamic energy of one access of the unit
	// (one MAC for a PE, one chunk shift for a buffer, one selected pixel
	// for a DAU row).
	AccessEnergy float64
}

// Result is the architecture-level estimate of a whole NPU (Fig. 10 output).
type Result struct {
	Config arch.Config

	// Frequency is the NPU clock: the minimum over all units and
	// inter-unit gate pairs.
	Frequency float64
	// StaticPower is the total DC bias dissipation (0 under ERSFQ).
	StaticPower float64
	// AreaNative is the die area at the native 1.0 µm process (m²).
	AreaNative float64
	// Area28nm is the 28 nm CMOS-equivalent area (m²) used for the TPU
	// comparison (Table I).
	Area28nm float64
	// TotalJJs is the chip's junction count.
	TotalJJs int64
	// PeakMACs is ArrayHeight × ArrayWidth × Frequency (MAC/s).
	PeakMACs float64

	// Units holds the per-unit breakdown in a fixed order: PE array, DAU,
	// ifmap buffer, output buffer, (psum buffer,) weight buffer, network.
	Units []UnitEstimate
}

// Unit returns the named unit estimate, or false.
func (r *Result) Unit(name string) (UnitEstimate, bool) {
	for _, u := range r.Units {
		if u.Name == name {
			return u, true
		}
	}
	return UnitEstimate{}, false
}

// interUnitPairs models the unit-to-unit interfaces whose timing also bounds
// the NPU clock (Section IV-A3): buffer→DAU, DAU→PE and PE→buffer links,
// each a latch pair with transmission-line mismatch from the unit spacing.
func interUnitPairs(lib *sfq.Library) []clocking.Pair {
	dff := lib.Gate(sfq.DFF)
	jtl := lib.Gate(sfq.JTL)
	link := []sfq.Gate{jtl, jtl}
	return []clocking.Pair{
		{Src: dff, Dst: lib.Gate(sfq.DFFB), MismatchWire: link},                // ifmap buffer → DAU
		{Src: lib.Gate(sfq.DFFB), Dst: lib.Gate(sfq.NDRO), MismatchWire: link}, // DAU → PE edge
		{Src: lib.Gate(sfq.FA), Dst: dff, MismatchWire: link},                  // PE → output buffer
	}
}

// estimatePEArray returns the PE-array unit estimate including the
// store-and-forward network branches each PE contributes.
func estimatePEArray(cfg arch.Config, lib *sfq.Library) UnitEstimate {
	pc := cfg.PECfg()
	inv := pc.Inventory()
	inv.Add(netunit.SystolicPerPE(pc.Bits), 1)
	n := cfg.PEs()
	total := sfq.Inventory{}
	total.Add(inv, n)
	return UnitEstimate{
		Name:         "PE array",
		Frequency:    pc.Frequency(lib),
		StaticPower:  total.StaticPower(lib),
		Area:         total.Area(lib) * logicAreaOverhead,
		JJs:          total.JJs(lib),
		AccessEnergy: pc.MACEnergy(lib),
	}
}

// estimateDAU returns the data-alignment-unit estimate.
func estimateDAU(cfg arch.Config, lib *sfq.Library) UnitEstimate {
	pc := cfg.PECfg()
	inv := dau.Inventory(cfg.ArrayHeight, pc.Bits, pc.PipelineStages())
	dffb := lib.Gate(sfq.DFFB)
	pair := clocking.Pair{Src: dffb, Dst: dffb}
	// Energy of delivering one selected pixel down one DAU row: selector
	// plus an average half of the delay cascade.
	perPixel := lib.AccessEnergy(sfq.MUXCell) +
		float64(pc.PipelineStages())/2*float64(pc.Bits)*lib.AccessEnergy(sfq.DFFB)
	return UnitEstimate{
		Name:         "DAU",
		Frequency:    clocking.Frequency(pair.CCT(clocking.ConcurrentFlowSkewed)),
		StaticPower:  inv.StaticPower(lib),
		Area:         inv.Area(lib) * logicAreaOverhead,
		JJs:          inv.JJs(lib),
		AccessEnergy: perPixel,
	}
}

// estimateBuffer returns a shift-register buffer estimate.
func estimateBuffer(name string, c srmem.Config, lib *sfq.Library) UnitEstimate {
	inv := c.Inventory()
	return UnitEstimate{
		Name:         name,
		Frequency:    srmem.Frequency(lib),
		StaticPower:  inv.StaticPower(lib),
		Area:         inv.Area(lib),
		JJs:          inv.JJs(lib),
		AccessEnergy: c.ChunkShiftEnergy(lib),
	}
}

// estimateNetwork returns the array-edge injection network estimate.
func estimateNetwork(cfg arch.Config, lib *sfq.Library) UnitEstimate {
	nc := netunit.Config{Width: max(cfg.ArrayHeight, cfg.ArrayWidth), Bits: cfg.PECfg().Bits}
	inv := netunit.CellInventory(netunit.Systolic2D, nc)
	return UnitEstimate{
		Name:         "NW unit",
		Frequency:    netunit.MaxFrequency(netunit.Systolic2D, nc, lib),
		StaticPower:  inv.StaticPower(lib),
		Area:         inv.Area(lib) * logicAreaOverhead,
		JJs:          inv.JJs(lib),
		AccessEnergy: inv.AccessEnergy(lib) / float64(max(1, inv.Gates())),
	}
}

// Estimate runs the full three-layer estimation for an NPU configuration.
// Results are memoised by configuration; repeated calls return one shared
// *Result, which callers must treat as read-only. A context that is
// already canceled aborts before any unit is estimated; a canceled
// computation is evicted from the cache rather than memoised.
func Estimate(ctx context.Context, cfg arch.Config) (*Result, error) {
	return EstimateFaulted(ctx, cfg, nil)
}

// EstimateFaulted is Estimate at a fault-perturbed operating point: the
// whole three-layer derivation reruns against the faulted cell library, so
// margin erosion and Ic spread propagate into every unit's frequency, power
// and energy exactly as a nominal shift would. Results are memoised by
// (configuration, fault key); a nil or disabled model keys to the empty
// string and gets the nominal library, which makes it Estimate.
func EstimateFaulted(ctx context.Context, cfg arch.Config, fm *faultinject.Model) (*Result, error) {
	mEstimates.Inc()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var kb [128]byte
	key := simcache.AppendFaultKey(simcache.AppendConfigKey(kb[:0], cfg), fm)
	return cache.GetOrCompute(key, func() (*Result, error) {
		defer obs.Time(mColdSeconds)()
		return estimateWithLib(ctx, cfg, sfq.NewLibraryFaulted(sfq.AIST10(), cfg.Tech, fm))
	})
}

// estimateWithLib runs the three-layer estimation against an explicit cell
// library (nominal or fault-perturbed). The estimation itself is a short
// closed-form derivation, so the only cancellation point is at entry.
func estimateWithLib(ctx context.Context, cfg arch.Config, lib *sfq.Library) (*Result, error) {
	if err := guard.CtxErr(ctx); err != nil {
		return nil, err
	}
	units := []UnitEstimate{
		estimatePEArray(cfg, lib),
		estimateDAU(cfg, lib),
		estimateBuffer("Ifmap buffer", cfg.IfmapBuf(), lib),
		estimateBuffer("Output buffer", cfg.OutputBuf(), lib),
	}
	if !cfg.IntegratedOutput {
		units = append(units, estimateBuffer("Psum buffer", cfg.PsumBuf(), lib))
	}
	units = append(units,
		estimateBuffer("Weight buffer", cfg.WeightBuf(), lib),
		estimateNetwork(cfg, lib),
	)

	res := &Result{Config: cfg, Units: units}
	res.Frequency = math.Inf(1)
	for _, u := range units {
		if u.Frequency > 0 && u.Frequency < res.Frequency {
			res.Frequency = u.Frequency
		}
		res.StaticPower += u.StaticPower
		res.AreaNative += u.Area
		res.TotalJJs += int64(u.JJs)
	}
	if f := clocking.PipelineFrequency(interUnitPairs(lib), clocking.ConcurrentFlowSkewed); f < res.Frequency {
		res.Frequency = f
	}
	res.Area28nm = res.AreaNative * sfq.AIST10().ScaleAreaTo(28e-9)
	res.PeakMACs = float64(cfg.PEs()) * res.Frequency
	// Frequency starts at +Inf and only unit estimates pull it down; if no
	// unit produced a positive frequency the headline numbers are not
	// finite and the result must fail typed, not leak infinities.
	if math.IsInf(res.Frequency, 0) || math.IsNaN(res.Frequency) {
		return nil, fmt.Errorf("estimator: %s produced a non-finite frequency: %w",
			cfg.Name, guard.ErrNonFinite)
	}
	return res, nil
}

// EstimateMAC estimates a standalone MAC-unit prototype (the fabricated
// 4-bit chip of Fig. 12(a)): frequency, static power and area.
func EstimateMAC(pc pe.Config, tech sfq.Technology) UnitEstimate {
	lib := sfq.NewLibrary(sfq.AIST10(), tech)
	inv := pc.Inventory()
	return UnitEstimate{
		Name:         fmt.Sprintf("%d-bit MAC unit", pc.Bits),
		Frequency:    pc.Frequency(lib),
		StaticPower:  inv.StaticPower(lib),
		Area:         inv.Area(lib) * logicAreaOverhead,
		JJs:          inv.JJs(lib),
		AccessEnergy: pc.MACEnergy(lib),
	}
}

// EstimateSRMem estimates a standalone shift-register memory prototype.
func EstimateSRMem(c srmem.Config, tech sfq.Technology) UnitEstimate {
	lib := sfq.NewLibrary(sfq.AIST10(), tech)
	u := estimateBuffer(fmt.Sprintf("SRmem %dB", c.CapacityBytes), c, lib)
	return u
}

// EstimateNW estimates a standalone systolic network-unit prototype. The
// unit consists only of DFF-splitter branches, so it has no frequency of
// its own (Fig. 13: "no frequency result for a single NW unit").
func EstimateNW(width, bits int, tech sfq.Technology) UnitEstimate {
	lib := sfq.NewLibrary(sfq.AIST10(), tech)
	inv := netunit.CellInventory(netunit.Systolic2D, netunit.Config{Width: width, Bits: bits})
	return UnitEstimate{
		Name:        fmt.Sprintf("%d-bit NW unit", bits),
		StaticPower: inv.StaticPower(lib),
		Area:        inv.Area(lib) * logicAreaOverhead,
		JJs:         inv.JJs(lib),
	}
}

// EstimatePrototypeNPU estimates the 4-bit 2×2 PE-arrayed NPU prototype of
// Fig. 12(c): four 4-bit PEs with their systolic branches, four small
// shift-register buffers (ifmap, psum, ofmap, weight) and the inter-unit
// links — the architecture-level validation subject of Fig. 13.
func EstimatePrototypeNPU(tech sfq.Technology) UnitEstimate {
	lib := sfq.NewLibrary(sfq.AIST10(), tech)
	pc := pe.Config{Bits: 4, AccBits: 12, Registers: 1, Dataflow: pe.WeightStationary}

	inv := sfq.Inventory{}
	perPE := pc.Inventory()
	perPE.Add(netunit.SystolicPerPE(pc.Bits), 1)
	inv.Add(perPE, 4)
	buf := srmem.Config{WidthBytes: 2, CapacityBytes: 16, Chunks: 1}
	for i := 0; i < 4; i++ {
		inv.Add(buf.Inventory(), 1)
	}

	freq := pc.Frequency(lib)
	if f := srmem.Frequency(lib); f < freq {
		freq = f
	}
	if f := clocking.PipelineFrequency(interUnitPairs(lib), clocking.ConcurrentFlowSkewed); f < freq {
		freq = f
	}
	return UnitEstimate{
		Name:        "4-bit 2x2 NPU",
		Frequency:   freq,
		StaticPower: inv.StaticPower(lib),
		Area:        inv.Area(lib) * logicAreaOverhead,
		JJs:         inv.JJs(lib),
	}
}
