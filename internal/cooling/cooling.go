// Package cooling models the 4 K cryocooler overhead and the
// performance-per-watt accounting of Table III. Following Holmes et al.
// (the paper's [46]), extracting one watt dissipated at 4 K costs about
// 400 watts at the wall; the paper also evaluates the "free cooling"
// scenario of a shared cryogenic facility, as assumed in quantum computing.
package cooling

// OverheadFactor is the wall-power multiplier of a 4 K cryocooler.
const OverheadFactor = 400.0

// WallPower converts 4 K chip power to total wall power including cooling.
func WallPower(chipPower float64) float64 { return chipPower * OverheadFactor }

// Scenario selects how cooling is charged.
type Scenario int

const (
	// FreeCooling charges only chip power (shared cryogenic facility).
	FreeCooling Scenario = iota
	// FullCooling charges the 400× cryocooler overhead.
	FullCooling
)

// String implements fmt.Stringer.
func (s Scenario) String() string {
	if s == FullCooling {
		return "w/ cooling cost"
	}
	return "w/o cooling cost"
}

// RelativePerfPerWatt is Table III's accounting for a design that draws
// chipPower (at 4 K; ambient for CMOS) and delivers speedup times the
// throughput of a reference drawing refPower. It returns the power the
// scenario charges and the design's perf/W normalised to the reference's,
// speedup·refPower/charged, or 0 when nothing is charged.
func RelativePerfPerWatt(s Scenario, chipPower, speedup, refPower float64) (charged, rel float64) {
	charged = chipPower
	if s == FullCooling {
		charged = WallPower(chipPower)
	}
	if charged <= 0 {
		return charged, 0
	}
	return charged, speedup * refPower / charged
}
