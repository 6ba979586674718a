// Package clocking implements the SFQ frequency model of Section IV-A2:
// the clock-cycle time of a clocked gate pair,
//
//	CCT = SetupTime + max(HoldTime, δt),   f = 1/CCT      (Eq. 1)
//
// where δt is the difference between data and clock pulse arrival, under the
// two real-world clocking schemes. Concurrent-flow clocking flows the clock
// along with the data and (with clock skewing) hides the data propagation
// delay; counter-flow clocking flows the clock against the data and is the
// only scheme that tolerates feedback loops, at the price of exposing the
// full feed-forward delay in every cycle (Fig. 7).
package clocking

import (
	"fmt"
	"math"

	"supernpu/internal/sfq"
)

// Scheme selects how the clock pulse is distributed relative to the data.
type Scheme int

const (
	// ConcurrentFlow routes the clock alongside the data without skew
	// tuning: δt = τ_data − τ_clock.
	ConcurrentFlow Scheme = iota
	// ConcurrentFlowSkewed additionally tunes the clock-line length so
	// that only the structurally uncompensatable mismatch of the pair
	// remains (the paper's "clock skewing" frequency-enhancing technique).
	ConcurrentFlowSkewed
	// CounterFlow routes the clock against the data direction. Feedback
	// delay is perfectly hidden but the feed-forward delay is exposed:
	// CCT = Setup + Hold + τ_data + τ_clock.
	CounterFlow
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case ConcurrentFlow:
		return "concurrent-flow"
	case ConcurrentFlowSkewed:
		return "concurrent-flow+skew"
	case CounterFlow:
		return "counter-flow"
	default:
		return "unknown-scheme"
	}
}

// Pair is one clocked source→destination gate pair in a unit's structure
// model, the atom of the microarchitecture-level frequency estimation.
type Pair struct {
	// Src is the upstream clocked gate whose output pulse travels to Dst.
	Src sfq.Gate
	// Dst is the downstream clocked gate whose Setup/Hold govern the pair.
	Dst sfq.Gate
	// DataWire lists the unclocked wire cells (JTL, splitter, merger) on
	// the data path between Src and Dst.
	DataWire []sfq.Gate
	// ClockWire lists the unclocked cells on the clock path between the
	// two gates' clock taps. If empty under CounterFlow, the clock path is
	// assumed delay-matched to the data path (JTL chain of equal length).
	ClockWire []sfq.Gate
	// MismatchWire lists the wire cells whose delays remain as data/clock
	// mismatch even after skew tuning — typically a fan-in reconvergence
	// (two inputs of Dst arriving through different depths, served by one
	// clock pulse). Empty means skewing fully matches the pair.
	MismatchWire []sfq.Gate
}

func wireDelay(cells []sfq.Gate) float64 {
	d := 0.0
	for _, c := range cells {
		d += c.Delay
	}
	return d
}

// DataDelay is the full data propagation time τ_data of the pair.
func (p Pair) DataDelay() float64 { return p.Src.Delay + wireDelay(p.DataWire) }

// ClockDelay is the clock propagation time τ_clock of the pair.
func (p Pair) ClockDelay() float64 {
	if len(p.ClockWire) == 0 {
		return p.DataDelay() // delay-matched clock JTL chain
	}
	return wireDelay(p.ClockWire)
}

// Mismatch is the residual data/clock arrival mismatch after skew tuning.
func (p Pair) Mismatch() float64 { return wireDelay(p.MismatchWire) }

// CCT returns the minimum clock cycle time of the pair under scheme s.
// It panics on an out-of-range scheme — a programmer error, since Scheme
// is a closed compile-time-known set.
func (p Pair) CCT(s Scheme) float64 {
	switch s {
	case ConcurrentFlowSkewed:
		return p.Dst.Setup + math.Max(p.Dst.Hold, p.Mismatch())
	case ConcurrentFlow:
		dt := p.DataDelay() - p.ClockDelay()
		return p.Dst.Setup + math.Max(p.Dst.Hold, dt)
	case CounterFlow:
		return p.Dst.Setup + p.Dst.Hold + p.DataDelay() + p.ClockDelay()
	default:
		panic(fmt.Sprintf("clocking: unknown scheme %d", int(s)))
	}
}

// Frequency converts a cycle time to a clock frequency.
func Frequency(cct float64) float64 {
	if cct <= 0 {
		return math.Inf(1)
	}
	return 1 / cct
}

// PipelineCCT returns the cycle time of a whole pipeline: the maximum pair
// CCT, since one global clock serves every stage (gate-level pipelining,
// Section II-B1). It returns 0 for an empty pipeline.
func PipelineCCT(pairs []Pair, s Scheme) float64 {
	worst := 0.0
	for _, p := range pairs {
		if c := p.CCT(s); c > worst {
			worst = c
		}
	}
	return worst
}

// PipelineFrequency is Frequency(PipelineCCT(...)).
func PipelineFrequency(pairs []Pair, s Scheme) float64 {
	return Frequency(PipelineCCT(pairs, s))
}

// LoopScheme returns the fastest usable scheme for a circuit: circuits with
// a feedback loop cannot hide the loop delay under concurrent-flow clocking
// and must fall back to counter-flow (Section III-B, Fig. 7).
func LoopScheme(hasFeedback bool) Scheme {
	if hasFeedback {
		return CounterFlow
	}
	return ConcurrentFlowSkewed
}
