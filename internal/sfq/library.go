package sfq

import (
	"fmt"
	"sort"
)

// GateKind identifies a logic or wire cell in the SFQ library.
type GateKind string

// The cell library. Every SFQ logic gate is clocked (it latches by nature,
// Section II-B1); wire cells (JTL, splitter) are unclocked pulse conduits.
const (
	DFF       GateKind = "DFF"      // delay flip-flop: one superconductor ring
	DFFB      GateKind = "DFFB"     // DAU special DFF with bypass line (Fig. 9)
	AND       GateKind = "AND"      // clocked AND
	OR        GateKind = "OR"       // clocked OR (confluence + DFF)
	XOR       GateKind = "XOR"      // clocked XOR
	NOT       GateKind = "NOT"      // clocked inverter
	NDRO      GateKind = "NDRO"     // non-destructive read-out cell (weight register bit)
	TFF       GateKind = "TFF"      // toggle flip-flop (clock dividers)
	FA        GateKind = "FA"       // one-bit full adder (composite macro cell)
	Splitter  GateKind = "SPLITTER" // pulse splitter: one input pulse → two identical pulses
	Merger    GateKind = "CB"       // confluence buffer: merges two pulse streams
	JTL       GateKind = "JTL"      // Josephson transmission line segment
	MUXCell   GateKind = "MUX"      // 2:1 pulse multiplexer (NDRO-steered)
	DEMUXCell GateKind = "DEMUX"    // 1:2 pulse demultiplexer (NDRO-steered)
)

// Gate holds the per-cell parameters the gate-level estimation layer
// provides (Section IV-A1): timing (delay / setup / hold), power (static
// bias dissipation and per-switch access energy) and area via JJ count.
type Gate struct {
	Kind GateKind
	// Clocked reports whether the cell latches on a clock pulse. Unclocked
	// wire cells (JTL, splitter, merger) never terminate a gate pair in the
	// frequency model; they only contribute propagation delay.
	Clocked bool
	// Delay is the data propagation delay from input (or clock, for
	// clocked cells) pulse to output pulse.
	Delay float64 // seconds
	// Setup is the minimum time a data pulse must precede the clock pulse.
	Setup float64 // seconds
	// Hold is the minimum time the data pulse must trail the previous
	// clock pulse.
	Hold float64 // seconds
	// JJs is the junction count of the laid-out cell, the basis of the
	// area and static-power models.
	JJs int
	// SwitchedJJs is the average number of junctions that flip per access,
	// used for dynamic energy (≤ JJs; biasing/storage JJs do not all
	// switch on every access).
	SwitchedJJs float64
}

// Library is an immutable set of gates for one process and technology.
type Library struct {
	Proc  Process
	Tech  Technology
	gates map[GateKind]Gate
}

// NewLibrary builds the AIST 1.0 µm cell library for the given technology.
//
// Calibration anchors (all from the paper):
//   - AND: delay 8.3 ps, static 3.6 µW, dynamic 1.4 aJ  (Fig. 10 table)
//   - XOR: delay 6.5 ps, static 3.0 µW, dynamic 1.4 aJ  (Fig. 10 table)
//   - a DFF shift register runs at 133 GHz under concurrent-flow clocking
//     and 71 GHz under counter-flow clocking (Fig. 7c)
//   - a full adder runs at 66 GHz concurrent / 30 GHz counter-flow (Fig. 7c)
//
// Static power per gate is JJs × StaticPowerPerJJ (AND: 20 JJ × 0.18 µW =
// 3.6 µW). ERSFQ doubles SwitchedJJs (bias JJs flip too) and zeroes statics.
func NewLibrary(p Process, tech Technology) *Library {
	g := map[GateKind]Gate{
		DFF:       {Kind: DFF, Clocked: true, Delay: 3.3 * Picosecond, Setup: 4.5 * Picosecond, Hold: 3.0 * Picosecond, JJs: 6, SwitchedJJs: 4},
		DFFB:      {Kind: DFFB, Clocked: true, Delay: 3.6 * Picosecond, Setup: 4.8 * Picosecond, Hold: 3.2 * Picosecond, JJs: 9, SwitchedJJs: 5},
		AND:       {Kind: AND, Clocked: true, Delay: 8.3 * Picosecond, Setup: 5.4 * Picosecond, Hold: 3.8 * Picosecond, JJs: 20, SwitchedJJs: 10},
		OR:        {Kind: OR, Clocked: true, Delay: 7.0 * Picosecond, Setup: 5.0 * Picosecond, Hold: 3.5 * Picosecond, JJs: 14, SwitchedJJs: 8},
		XOR:       {Kind: XOR, Clocked: true, Delay: 6.5 * Picosecond, Setup: 5.2 * Picosecond, Hold: 3.6 * Picosecond, JJs: 17, SwitchedJJs: 10},
		NOT:       {Kind: NOT, Clocked: true, Delay: 6.8 * Picosecond, Setup: 5.0 * Picosecond, Hold: 3.4 * Picosecond, JJs: 12, SwitchedJJs: 7},
		NDRO:      {Kind: NDRO, Clocked: true, Delay: 5.8 * Picosecond, Setup: 4.9 * Picosecond, Hold: 3.3 * Picosecond, JJs: 11, SwitchedJJs: 5},
		TFF:       {Kind: TFF, Clocked: false, Delay: 4.0 * Picosecond, JJs: 8, SwitchedJJs: 4},
		FA:        {Kind: FA, Clocked: true, Delay: 9.09 * Picosecond, Setup: 9.0 * Picosecond, Hold: 6.15 * Picosecond, JJs: 26, SwitchedJJs: 14},
		Splitter:  {Kind: Splitter, Clocked: false, Delay: 1.8 * Picosecond, JJs: 3, SwitchedJJs: 3},
		Merger:    {Kind: Merger, Clocked: false, Delay: 3.0 * Picosecond, JJs: 5, SwitchedJJs: 3},
		JTL:       {Kind: JTL, Clocked: false, Delay: 2.2 * Picosecond, JJs: 2, SwitchedJJs: 2},
		MUXCell:   {Kind: MUXCell, Clocked: true, Delay: 6.0 * Picosecond, Setup: 5.0 * Picosecond, Hold: 3.5 * Picosecond, JJs: 16, SwitchedJJs: 8},
		DEMUXCell: {Kind: DEMUXCell, Clocked: true, Delay: 6.0 * Picosecond, Setup: 5.0 * Picosecond, Hold: 3.5 * Picosecond, JJs: 16, SwitchedJJs: 8},
	}
	if tech == ERSFQ {
		// ERSFQ replaces each bias resistor with a bias JJ + inductor:
		// the same logic structure and timing, twice the switching energy
		// (Section IV-A1), zero static power (handled by Process).
		for k, gate := range g {
			gate.SwitchedJJs *= 2
			g[k] = gate
		}
	}
	if ts := p.timingScale(); ts != 1 {
		// Scaled processes speed every cell up linearly (Kadin's rule).
		for k, gate := range g {
			gate.Delay *= ts
			gate.Setup *= ts
			gate.Hold *= ts
			g[k] = gate
		}
	}
	return &Library{Proc: p, Tech: tech, gates: g}
}

// nominalLibs holds the nominal AIST 1.0 µm cell library of each
// technology, built once at start-up and shared read-only.
var nominalLibs = [...]*Library{
	RSFQ:  NewLibrary(AIST10(), RSFQ),
	ERSFQ: NewLibrary(AIST10(), ERSFQ),
}

// NominalLibrary returns the nominal AIST 1.0 µm cell library of tech, the
// library NewLibrary(AIST10(), tech) builds. It is built once per
// technology and shared by every caller, so treat it as immutable, like
// every cached result. It panics on a technology other than RSFQ and
// ERSFQ, which arch.Config.Validate rejects. NewLibrary keeps returning a
// fresh library, the one NewLibraryFaulted perturbs in place.
func NominalLibrary(tech Technology) *Library { return nominalLibs[tech] }

// Gate returns the named cell. It panics on an unknown kind: the library is
// a closed, compile-time-known set and a miss is a programming error.
func (l *Library) Gate(k GateKind) Gate {
	g, ok := l.gates[k]
	if !ok {
		panic(fmt.Sprintf("sfq: unknown gate kind %q", k))
	}
	return g
}

// StaticPower returns the DC bias dissipation of one instance of gate k.
func (l *Library) StaticPower(k GateKind) float64 {
	return float64(l.Gate(k).JJs) * l.Proc.StaticPowerPerJJ(l.Tech)
}

// AccessEnergy returns the average dynamic energy of one access of gate k,
// the average over all possible input states as extracted by the circuit
// simulator (Section IV-A1).
func (l *Library) AccessEnergy(k GateKind) float64 {
	return l.Gate(k).SwitchedJJs * l.Proc.SwitchEnergyPerJJ
}

// Area returns the laid-out area of one instance of gate k.
func (l *Library) Area(k GateKind) float64 {
	return float64(l.Gate(k).JJs) * l.Proc.AreaPerJJ
}

// Inventory is a multiset of cells: the microarchitecture-level structure
// model describes every unit as gate counts (Fig. 10 "Gate count").
type Inventory map[GateKind]int

// Add merges other into inv with multiplicity n.
func (inv Inventory) Add(other Inventory, n int) {
	for k, c := range other {
		inv[k] += c * n
	}
}

// AddGate adds n instances of kind k.
func (inv Inventory) AddGate(k GateKind, n int) { inv[k] += n }

// JJs returns the total junction count of the inventory.
func (inv Inventory) JJs(l *Library) int {
	total := 0
	for k, n := range inv {
		total += l.Gate(k).JJs * n
	}
	return total
}

// Gates returns the total cell count.
func (inv Inventory) Gates() int {
	total := 0
	for _, n := range inv {
		total += n
	}
	return total
}

// sortedKinds returns the inventory's gate kinds in lexical order. Float
// reductions must accumulate in this fixed order: summing in map-iteration
// order makes the low-order bits of power/area/energy vary from run to run,
// which breaks byte-identical reproduction (golden files, the evaluation
// service's serial-vs-concurrent identity).
func (inv Inventory) sortedKinds() []GateKind {
	kinds := make([]GateKind, 0, len(inv))
	for k := range inv {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

// StaticPower returns the inventory's total DC bias dissipation in watts.
func (inv Inventory) StaticPower(l *Library) float64 {
	p := 0.0
	for _, k := range inv.sortedKinds() {
		p += float64(inv[k]) * l.StaticPower(k)
	}
	return p
}

// Area returns the inventory's total laid-out area in m².
func (inv Inventory) Area(l *Library) float64 {
	a := 0.0
	for _, k := range inv.sortedKinds() {
		a += float64(inv[k]) * l.Area(k)
	}
	return a
}

// AccessEnergy returns the dynamic energy of one access that activates every
// cell in the inventory once (e.g. one shift of a register stage).
func (inv Inventory) AccessEnergy(l *Library) float64 {
	e := 0.0
	for _, k := range inv.sortedKinds() {
		e += float64(inv[k]) * l.AccessEnergy(k)
	}
	return e
}
