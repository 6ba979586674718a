// Package pe models the SuperNPU processing element (Section III-B): an
// 8-bit gate-level-pipelined multiply-accumulate datapath with weight
// registers, in both candidate dataflows. The weight-stationary PE has no
// feedback loop and runs under skewed concurrent-flow clocking at the NPU
// clock (≈52.6 GHz); the output-stationary PE's accumulator loop forces
// counter-flow clocking and roughly halves the frequency (Fig. 7), which is
// why the paper adopts weight-stationary.
package pe

import (
	"fmt"

	"supernpu/internal/clocking"
	"supernpu/internal/sfq"
)

// Dataflow selects which operand stays resident in the PE (Fig. 6).
type Dataflow int

const (
	// WeightStationary holds weights in NDRO registers; ifmap streams in,
	// partial sums flow through. Feed-forward only.
	WeightStationary Dataflow = iota
	// OutputStationary accumulates the output in place: the adder and its
	// register form a feedback loop.
	OutputStationary
	// InputStationary holds the ifmap pixel; hardware structure is the
	// same as WeightStationary with the operand roles swapped.
	InputStationary
)

// String implements fmt.Stringer.
func (d Dataflow) String() string {
	switch d {
	case WeightStationary:
		return "weight-stationary"
	case OutputStationary:
		return "output-stationary"
	case InputStationary:
		return "input-stationary"
	default:
		return fmt.Sprintf("Dataflow(%d)", int(d))
	}
}

// HasFeedback reports whether the dataflow requires a feedback loop in the
// PE datapath (the accumulate-in-place loop of Fig. 6(b)).
func (d Dataflow) HasFeedback() bool { return d == OutputStationary }

// Config describes one PE instance.
type Config struct {
	// Bits is the operand width (the paper's PE is 8-bit).
	Bits int
	// AccBits is the partial-sum accumulator width.
	AccBits int
	// Registers is the number of weight registers per PE (SuperNPU: 8).
	Registers int
	// Dataflow selects the resident operand.
	Dataflow Dataflow
}

// Default8Bit is the paper's PE: 8-bit operands, 24-bit partial sums,
// weight-stationary.
func Default8Bit(registers int) Config {
	return Config{Bits: 8, AccBits: 24, Registers: registers, Dataflow: WeightStationary}
}

// PipelineStages returns the gate-level pipeline depth of the PE. The
// paper's 8-bit PE has 15 stages (Section III-C): the multiplier reduction
// tree contributes ~2·log2(bits) stages, the accumulator and forwarding
// latches the rest.
func (c Config) PipelineStages() int {
	stages := 0
	for n := c.Bits; n > 1; n = (n + 1) / 2 {
		stages += 2 // one carry-save level + its rebalancing level
	}
	return stages + 9 // operand intake, accumulate, psum merge, forwarding
}

// Inventory returns the PE's cell multiset: the 8×8 AND partial-product
// array, the carry-save reduction and accumulation adders, NDRO weight
// registers, the path-balancing DFFs that gate-level pipelining demands
// (every live signal is re-latched every stage — the dominant cell count in
// real bit-parallel RSFQ multipliers), and per-gate clock splitters and
// interconnect JTLs.
func (c Config) Inventory() sfq.Inventory {
	inv := sfq.Inventory{}
	b, a := c.Bits, c.AccBits

	inv.AddGate(sfq.AND, b*b)            // partial-product generation
	inv.AddGate(sfq.FA, b*b-b)           // carry-save reduction array
	inv.AddGate(sfq.FA, a)               // partial-sum accumulation
	inv.AddGate(sfq.NDRO, c.Registers*b) // resident weight registers
	if c.Registers > 1 {
		// Register-select steering for multi-kernel execution.
		inv.AddGate(sfq.MUXCell, c.Registers*b/2)
	}
	if c.Dataflow.HasFeedback() {
		// The OS accumulate loop needs a result register and merge.
		inv.AddGate(sfq.DFF, a)
		inv.AddGate(sfq.Merger, a)
	}

	// Path balancing: live signals × stages. Live width ≈ three quarters
	// of the partial-product matrix plus both operand buses and the psum.
	live := (b*b*3)/4 + 3*b + a
	inv.AddGate(sfq.DFF, live*c.PipelineStages())

	// Clock distribution (one splitter per clocked gate) and two
	// interconnect JTL segments per cell.
	clocked := inv[sfq.AND] + inv[sfq.FA] + inv[sfq.NDRO] + inv[sfq.DFF] + inv[sfq.MUXCell]
	inv.AddGate(sfq.Splitter, clocked)
	inv.AddGate(sfq.JTL, 2*clocked)
	return inv
}

// CriticalPairs returns the gate pairs that bound the PE's clock frequency.
// The binding pair of the weight-stationary MAC is a full adder fed through
// a reconvergent fan-in (splitter, two confluence buffers and a JTL) whose
// arrival mismatch clock skewing cannot remove; it sets the ~52.6 GHz NPU
// clock. The output-stationary PE adds the accumulator feedback pair.
func (c Config) CriticalPairs(lib *sfq.Library) []clocking.Pair {
	fa := lib.Gate(sfq.FA)
	and := lib.Gate(sfq.AND)
	ndro := lib.Gate(sfq.NDRO)
	spl := lib.Gate(sfq.Splitter)
	cb := lib.Gate(sfq.Merger)
	jtl := lib.Gate(sfq.JTL)

	pairs := []clocking.Pair{
		// Weight register → partial-product AND.
		{Src: ndro, Dst: and, MismatchWire: []sfq.Gate{spl}},
		// AND → first reduction FA.
		{Src: and, Dst: fa, MismatchWire: []sfq.Gate{spl, jtl}},
		// Reduction FA → FA through the reconvergent carry/sum merge:
		// the frequency-binding pair.
		{Src: fa, Dst: fa, MismatchWire: []sfq.Gate{spl, cb, cb, jtl}},
	}
	if c.Dataflow.HasFeedback() {
		// Accumulator output looping back to the adder input.
		pairs = append(pairs, clocking.Pair{Src: fa, Dst: fa, DataWire: []sfq.Gate{jtl, jtl}})
	}
	return pairs
}

// Frequency returns the PE's maximum clock frequency under the fastest
// clocking scheme its dataflow admits.
func (c Config) Frequency(lib *sfq.Library) float64 {
	scheme := clocking.LoopScheme(c.Dataflow.HasFeedback())
	return clocking.PipelineFrequency(c.CriticalPairs(lib), scheme)
}

// MACEnergy returns the dynamic energy of one multiply-accumulate: every
// logic cell of the datapath switches with ~40% activity plus the balancing
// latches that re-time it.
func (c Config) MACEnergy(lib *sfq.Library) float64 {
	const activity = 0.4
	return c.Inventory().AccessEnergy(lib) * activity
}

// MAC is the functional model of the PE datapath used by the cycle-stepped
// systolic array: it computes what the hardware computes, with the weight
// resident in one of the PE's registers.
type MAC struct {
	cfg     Config
	weights []int8
}

// NewMAC returns a functional PE with all weight registers cleared.
func NewMAC(cfg Config) *MAC {
	return &MAC{cfg: cfg, weights: make([]int8, cfg.Registers)}
}

// LoadWeight stores w into register reg.
func (m *MAC) LoadWeight(reg int, w int8) {
	m.weights[reg] = w
}

// Step computes one weight-stationary MAC: psumIn + weight[reg]·x.
// Saturation is not modelled; the 24-bit accumulator of the real datapath
// never overflows for the layer sizes the NPU supports, which the systolic
// tests assert.
func (m *MAC) Step(reg int, x int8, psumIn int32) int32 {
	return psumIn + int32(m.weights[reg])*int32(x)
}
