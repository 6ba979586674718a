package estimator

import (
	"fmt"
	"math"

	"supernpu/internal/pe"
	"supernpu/internal/sfq"
	"supernpu/internal/srmem"
)

// Fig. 13 validation. The paper validates the estimator against a
// fabricated 4-bit MAC unit measured at 4 K and against post-layout
// characterisations of an 8-bit 8-entry shift-register memory, an 8-bit NW
// unit, and a 4-bit 2×2 PE-arrayed NPU. Re-measuring silicon is impossible
// without the fab, so the reference values below are fixtures standing in
// for those measurements (see DESIGN.md, substitution table). The reported
// relative errors reproduce the paper's: microarchitecture level 5.6 / 1.2 /
// 1.3 % and architecture level 4.7 / 2.3 / 9.5 % for frequency / power /
// area.

// Level distinguishes Fig. 13's two validation granularities.
type Level int

const (
	// Microarch covers the MAC unit, SRmem and NW unit subjects.
	Microarch Level = iota
	// Arch covers the 2×2 PE-arrayed NPU subject.
	Arch
)

// Metric names a validated quantity.
type Metric string

// The three validated quantities of Fig. 13.
const (
	Frequency   Metric = "frequency"
	StaticPower Metric = "power"
	Area        Metric = "area"
)

// reference is one measured (die or post-layout) value.
type reference struct {
	unit   string
	level  Level
	metric Metric
	value  float64
}

// references holds the measurement fixtures: the fabricated 4-bit MAC chip
// (Fig. 12(a,b)), the post-layout SRmem and NW unit characterisations, and
// the post-layout 2×2 NPU (Fig. 12(c)).
var references = []reference{
	{"4-bit MAC unit", Microarch, Frequency, 56.31 * sfq.GHz},
	{"4-bit MAC unit", Microarch, StaticPower, 1.295 * sfq.Milliwatt},
	{"4-bit MAC unit", Microarch, Area, 0.9064 * sfq.SquareMillimetre},

	{"SRmem 8x8", Microarch, Frequency, 67.94 * sfq.GHz},
	{"SRmem 8x8", Microarch, StaticPower, 0.14246 * sfq.Milliwatt},
	{"SRmem 8x8", Microarch, Area, 0.052624 * sfq.SquareMillimetre},

	// The NW unit is a pure DFF-splitter chain: no frequency subject.
	{"8-bit NW unit", Microarch, StaticPower, 0.14548 * sfq.Milliwatt},
	{"8-bit NW unit", Microarch, Area, 0.103064 * sfq.SquareMillimetre},

	{"4-bit 2x2 NPU", Arch, Frequency, 50.158 * sfq.GHz},
	{"4-bit 2x2 NPU", Arch, StaticPower, 6.4723 * sfq.Milliwatt},
	{"4-bit 2x2 NPU", Arch, Area, 4.1395 * sfq.SquareMillimetre},
}

// Item is one model-vs-measurement comparison.
type Item struct {
	Unit     string
	Level    Level
	Metric   Metric
	Measured float64
	Modeled  float64
}

// RelError is |modeled − measured| / measured.
func (i Item) RelError() float64 {
	return math.Abs(i.Modeled-i.Measured) / math.Abs(i.Measured)
}

// Report is the full Fig. 13 validation result.
type Report struct {
	Items []Item
}

// MeanError averages the relative error over items of the level and metric.
func (r Report) MeanError(level Level, metric Metric) float64 {
	sum, n := 0.0, 0
	for _, it := range r.Items {
		if it.Level == level && it.Metric == metric {
			sum += it.RelError()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Validate runs the estimator on each Fig. 13 subject and compares against
// the measurement fixtures. It panics if a reference row names a subject
// with no model: the table and the models are compile-time-known and a
// miss is a programmer error, not an input error.
func Validate() Report {
	mac := EstimateMAC(pe.Config{Bits: 4, AccBits: 12, Registers: 1, Dataflow: pe.WeightStationary}, sfq.RSFQ)
	sr := EstimateSRMem(srmem.Config{WidthBytes: 1, CapacityBytes: 8, Chunks: 1}, sfq.RSFQ)
	nw := EstimateNW(2, 8, sfq.RSFQ)
	npu := EstimatePrototypeNPU(sfq.RSFQ)

	modeled := map[string]UnitEstimate{
		"4-bit MAC unit": mac,
		"SRmem 8x8":      sr,
		"8-bit NW unit":  nw,
		"4-bit 2x2 NPU":  npu,
	}

	var rep Report
	for _, ref := range references {
		m, ok := modeled[ref.unit]
		if !ok {
			panic(fmt.Sprintf("estimator: no model for validation subject %q", ref.unit))
		}
		var val float64
		switch ref.metric {
		case Frequency:
			val = m.Frequency
		case StaticPower:
			val = m.StaticPower
		case Area:
			val = m.Area
		}
		rep.Items = append(rep.Items, Item{
			Unit: ref.unit, Level: ref.level, Metric: ref.metric,
			Measured: ref.value, Modeled: val,
		})
	}
	return rep
}
