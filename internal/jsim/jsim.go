// Package jsim is a transient circuit simulator for small superconductor
// single-flux-quantum netlists, standing in for JSIM (Fang & Van Duzer,
// 1989), which the paper uses to extract gate-level timing and power
// parameters (Section IV-A1).
//
// Each Josephson junction follows the RCSJ (resistively and capacitively
// shunted junction) model. A circuit is a chain of junction nodes coupled by
// inductors — the canonical topology of Josephson transmission lines (JTL)
// and of the storage loops inside SFQ gates. Node i obeys the discrete
// sine-Gordon equation derived from Kirchhoff's current law:
//
//	C·(Φ0/2π)·φ̈ = I_bias + I_in(t)
//	             + (Φ0/2π)·( (φ_{i-1}−φ_i)/L_{i-1} + (φ_{i+1}−φ_i)/L_i )
//	             − Ic·sin(φ)  −  (Φ0/2π)·φ̇/R
//
// A single flux quantum is a travelling 2π phase slip; a voltage pulse is
// V = (Φ0/2π)·φ̇. The package measures pulse arrival times, per-stage
// propagation delay, and switching energy drawn from the bias network —
// which is exactly Σ I_bias·Φ0 per propagated fluxon, the physical basis of
// the cell library's per-JJ switching energy.
package jsim

import (
	"math"

	"supernpu/internal/sfq"
)

// phi0over2pi is the reduced flux quantum Φ0/2π.
const phi0over2pi = sfq.FluxQuantum / (2 * math.Pi)

// Junction is one RCSJ Josephson junction to ground.
type Junction struct {
	Ic float64 // critical current (A)
	C  float64 // shunt capacitance (F)
	R  float64 // shunt resistance (Ω)
}

// CriticallyDamped returns a junction with the given critical current and
// capacitance whose shunt resistance is chosen for a Stewart–McCumber
// parameter βc = 1, the standard operating point of RSFQ cells.
func CriticallyDamped(ic, c float64) Junction {
	r := math.Sqrt(phi0over2pi / (ic * c))
	return Junction{Ic: ic, C: c, R: r}
}

// Node is one chain node: a junction with its DC bias and the inductor to
// the next node (LNext of the final node is ignored).
type Node struct {
	JJ    Junction
	Bias  float64 // DC bias current into the node (A)
	LNext float64 // inductance to the following node (H)
}

// PulseSource injects a Gaussian current pulse at one node, the standard
// stimulus for triggering an SFQ event.
type PulseSource struct {
	Node  int
	At    float64 // pulse centre time (s)
	Sigma float64 // pulse width (s)
	Amp   float64 // peak current (A)
}

func (p PulseSource) current(t float64) float64 {
	x := (t - p.At) / p.Sigma
	return p.Amp * math.Exp(-x*x)
}

// sourceCutoff is the multiple of the pulse width past its centre from
// which a source's exponential is exactly zero: math.Exp returns 0 below
// −745.13, so exp(−x²) is 0 for every x ≥ 28. Before the centre the
// Gaussian is tiny but nonzero, so it is always evaluated there.
const sourceCutoff = 28

// cutoffTime returns the time from which current's exponential is exactly
// 0, At + 28σ, or +Inf where no such time holds. current's x = (t−At)/σ
// never decreases in t when σ > 0, so x ≥ 28 at the cutoff holds at every
// later t; the check also rejects a cutoff that rounding pulled in (a σ
// tiny beside At).
func (p PulseSource) cutoffTime() float64 {
	end := p.At + sourceCutoff*p.Sigma
	if p.Sigma > 0 && (end-p.At)/p.Sigma >= sourceCutoff {
		return end
	}
	return math.Inf(1)
}

// Chain is a simulatable junction chain with pulse stimuli.
type Chain struct {
	Nodes   []Node
	Sources []PulseSource
}

// StandardJTL builds an n-stage Josephson transmission line with the AIST
// 1.0 µm operating point: Ic = 100 µA, βc = 1, βL ≈ 3, bias 0.7·Ic, and a
// trigger pulse at the first node.
func StandardJTL(n int) *Chain {
	const (
		ic = 100e-6
		c  = 0.24e-12 // ≈60 fF/µm² × 4 µm²
	)
	l := 3 * phi0over2pi / ic // βL = 2π·L·Ic/Φ0 = 3
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{JJ: CriticallyDamped(ic, c), Bias: 0.7 * ic, LNext: l}
	}
	return &Chain{
		Nodes: nodes,
		Sources: []PulseSource{{
			Node: 0, At: 20e-12, Sigma: 1.2e-12, Amp: 1.8 * ic,
		}},
	}
}
