// Package netunit models the three on-chip network-unit designs the paper
// compares for distributing operands to the PE array (Section III-A, Fig. 4):
// a 2D splitter tree and a 1D splitter tree (fan-out networks) and a 2D
// systolic array (store-and-forward chain). It provides the critical-path
// delay and area comparison of Fig. 5, from which the paper adopts the
// systolic design.
package netunit

import (
	"errors"
	"fmt"
	"math"

	"supernpu/internal/clocking"
	"supernpu/internal/sfq"
)

// ErrUnknownDesign marks a network-unit design outside the defined
// SplitterTree2D/SplitterTree1D/Systolic2D set. Boundary code matches it
// with errors.Is to reject the input.
var ErrUnknownDesign = errors.New("netunit: unknown design")

// Design identifies one of the three candidate network structures.
type Design int

const (
	// SplitterTree2D multicasts both PE inputs through two splitter trees
	// sharing one global clock line (usable with output-stationary
	// dataflow). The data/clock arrival mismatch of a PE's two inputs
	// grows linearly with the PE-array width.
	SplitterTree2D Design = iota
	// SplitterTree1D multicasts one operand per row through a splitter
	// tree (usable with weight-stationary dataflow). No accumulating
	// timing mismatch, but tree wiring costs area like the 2D tree.
	SplitterTree1D
	// Systolic2D forwards operands PE-to-PE through DFF/splitter branches:
	// negligible input-arrival mismatch and the smallest wiring area. The
	// paper's chosen design.
	Systolic2D
)

// String implements fmt.Stringer.
func (d Design) String() string {
	switch d {
	case SplitterTree2D:
		return "2D splitter tree"
	case SplitterTree1D:
		return "1D splitter tree"
	case Systolic2D:
		return "2D systolic array"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// Designs lists all candidates in the order of Fig. 5.
func Designs() []Design { return []Design{SplitterTree2D, SplitterTree1D, Systolic2D} }

// Config describes the network instance under analysis.
type Config struct {
	// Width is the PE-array width (the array is assumed square for this
	// analysis, as in Fig. 5).
	Width int
	// Bits is the operand bus width per lane.
	Bits int
}

// jtlPerPEPitch is the number of JTL segments needed to span one PE pitch:
// SFQ PEs are physically large, so a branch crossing a PE costs several
// transmission-line cells.
const jtlPerPEPitch = 5

// CriticalPathDelay returns the network's minimum clock cycle time (the
// inverse of its maximum frequency), reproducing Fig. 5(a). It panics with
// ErrUnknownDesign on an out-of-range design (programmer error; the
// sentinel survives the parallel pool's panic recovery).
func CriticalPathDelay(d Design, cfg Config, lib *sfq.Library) float64 {
	dff := lib.Gate(sfq.DFF)
	spl := lib.Gate(sfq.Splitter)
	jtl := lib.Gate(sfq.JTL)

	switch d {
	case SplitterTree2D:
		// Both trees share a global clock line, so the arrival mismatch
		// between a PE's two inputs grows with the distance from the tree
		// root: one splitter branch plus the wiring across each PE pitch
		// per array column (input arrival timing, Fig. 4(a)).
		hop := make([]sfq.Gate, 0, 1+jtlPerPEPitch)
		hop = append(hop, spl)
		for i := 0; i < jtlPerPEPitch; i++ {
			hop = append(hop, jtl)
		}
		mismatch := make([]sfq.Gate, 0, cfg.Width*len(hop))
		for w := 0; w < cfg.Width; w++ {
			mismatch = append(mismatch, hop...)
		}
		p := clocking.Pair{Src: dff, Dst: dff, MismatchWire: mismatch}
		return p.CCT(clocking.ConcurrentFlowSkewed)

	case SplitterTree1D:
		// One tree per row: the residual mismatch is only the tree depth
		// (log2 W splitter levels), independent of which PE is fed.
		depth := int(math.Ceil(math.Log2(float64(max(cfg.Width, 2)))))
		mismatch := make([]sfq.Gate, depth)
		for i := range mismatch {
			mismatch[i] = spl
		}
		p := clocking.Pair{Src: dff, Dst: dff, MismatchWire: mismatch}
		return p.CCT(clocking.ConcurrentFlowSkewed)

	case Systolic2D:
		// Store-and-forward between adjacent PEs: both PE inputs travel
		// one hop, their mismatch is negligible (Fig. 4(c)).
		p := clocking.Pair{Src: dff, Dst: dff}
		return p.CCT(clocking.ConcurrentFlowSkewed)

	default:
		panic(fmt.Errorf("%w %d", ErrUnknownDesign, int(d)))
	}
}

// MaxFrequency is 1/CriticalPathDelay.
func MaxFrequency(d Design, cfg Config, lib *sfq.Library) float64 {
	return clocking.Frequency(CriticalPathDelay(d, cfg, lib))
}

// CellInventory returns the wire/latch cells of the network, the basis of
// the area comparison in Fig. 5(b). It panics with ErrUnknownDesign on an
// out-of-range design (programmer error; the sentinel survives the
// parallel pool's panic recovery).
func CellInventory(d Design, cfg Config) sfq.Inventory {
	inv := sfq.Inventory{}
	w := cfg.Width
	switch d {
	case SplitterTree2D, SplitterTree1D:
		// A W-leaf splitter tree per row/column lane: W−1 splitters and a
		// pipelining DFF per leaf, plus transmission-line wiring spanning
		// the whole array — the dominant cost ("large number of wire cells
		// for the tree construction").
		lanes := w // one tree per row (1D) or per row+column pair (2D)
		wiringPerLeaf := jtlPerPEPitch
		if d == SplitterTree2D {
			lanes = 2 * w
		}
		inv.AddGate(sfq.Splitter, lanes*(w-1)*cfg.Bits)
		inv.AddGate(sfq.DFF, lanes*w*cfg.Bits)
		inv.AddGate(sfq.JTL, lanes*w*wiringPerLeaf*cfg.Bits)
	case Systolic2D:
		// Only the array-edge injection branches are network cells; the
		// PE-to-PE forwarding latches live inside the PEs themselves.
		inv.Add(SystolicPerPE(cfg.Bits), 2*w)
	default:
		panic(fmt.Errorf("%w %d", ErrUnknownDesign, int(d)))
	}
	return inv
}

// Area returns the laid-out network area in m².
func Area(d Design, cfg Config, lib *sfq.Library) float64 {
	return CellInventory(d, cfg).Area(lib)
}

// SystolicPerPE returns the store-and-forward branch cells one PE
// contributes to the systolic network: a DFF and a splitter per bit per
// direction (horizontal ifmap forwarding, vertical psum forwarding) plus
// adjacent-hop wiring.
func SystolicPerPE(bits int) sfq.Inventory {
	inv := sfq.Inventory{}
	inv.AddGate(sfq.DFF, 2*bits)
	inv.AddGate(sfq.Splitter, 2*bits)
	inv.AddGate(sfq.JTL, 2*2*bits)
	return inv
}
