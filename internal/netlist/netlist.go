// Package netlist is the gate-level circuit structure model of the
// estimator's microarchitecture layer (Fig. 10): a directed acyclic graph
// of SFQ cells from which the layer "generates the intra-unit gate pair and
// the gate count information".
//
// SFQ logic is gate-level pipelined by nature — every clocked cell is a
// pipeline stage. Consequently a gate whose inputs traverse different
// numbers of clocked cells needs path-balancing DFFs on its shallow inputs,
// and every signal fanning out to k consumers needs k−1 splitters. The
// package computes stage depths, inserts the balancing/fan-out cells, and
// derives the cell inventory and the clocked gate pairs whose timing bounds
// the unit's frequency.
package netlist

import (
	"fmt"

	"supernpu/internal/clocking"
	"supernpu/internal/sfq"
)

// NodeID identifies a node in the graph.
type NodeID int

// edge is one fan-in connection with its wire-cell annotation.
type edge struct {
	from NodeID
	// wire lists the unclocked cells (JTL, splitter, merger) the pulse
	// traverses on this connection, in order.
	wire []sfq.GateKind
}

type node struct {
	id      NodeID
	kind    sfq.GateKind
	name    string
	isInput bool
	fanin   []edge
}

// Graph is a DAG of SFQ cells under construction. Nodes must be added in
// topological order (fan-ins must already exist).
type Graph struct {
	nodes []node
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Input declares a primary input (no cell, stage 0).
func (g *Graph) Input(name string) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, node{id: id, name: name, isInput: true})
	return id
}

// Conn describes one fan-in of a gate: the driving node and the wire cells
// on the connection.
type Conn struct {
	From NodeID
	Wire []sfq.GateKind
}

// From is a Conn with no explicit wire cells.
func From(id NodeID) Conn { return Conn{From: id} }

// Via annotates a connection with wire cells.
func Via(id NodeID, wire ...sfq.GateKind) Conn { return Conn{From: id, Wire: wire} }

// Add appends a clocked cell with the given fan-ins and returns its id. It
// panics if a fan-in does not exist yet (construction must be topological)
// or if the kind is an unclocked wire cell (wire cells belong on edges).
func (g *Graph) Add(kind sfq.GateKind, name string, fanins ...Conn) NodeID {
	switch kind {
	case sfq.JTL, sfq.Splitter, sfq.Merger, sfq.TFF:
		panic(fmt.Sprintf("netlist: %s is a wire cell; annotate it on an edge", kind))
	}
	id := NodeID(len(g.nodes))
	n := node{id: id, kind: kind, name: name}
	for _, c := range fanins {
		if c.From < 0 || c.From >= id {
			panic(fmt.Sprintf("netlist: node %q fan-in %d out of range", name, c.From))
		}
		n.fanin = append(n.fanin, edge{from: c.From, wire: c.Wire})
	}
	g.nodes = append(g.nodes, n)
	return id
}

// Stages returns the pipeline depth: the maximum clocked depth over all
// cells (inputs are stage 0; each clocked cell is one stage deeper than its
// deepest fan-in).
func (g *Graph) Stages() int {
	depth := g.depths()
	max := 0
	for _, d := range depth {
		if d > max {
			max = d
		}
	}
	return max
}

func (g *Graph) depths() []int {
	depth := make([]int, len(g.nodes))
	for i, n := range g.nodes {
		if n.isInput {
			depth[i] = 0
			continue
		}
		d := 0
		for _, e := range n.fanin {
			if depth[e.from] > d {
				d = depth[e.from]
			}
		}
		depth[i] = d + 1
	}
	return depth
}

// BalancingDFFs returns the number of path-balancing DFFs gate-level
// pipelining requires: for every fan-in of every clocked cell, the input
// must arrive exactly one stage earlier than the cell fires, so a fan-in
// whose producer sits s stages shallower needs s−1 re-timing DFFs. Output
// alignment pads every terminal cell to the full pipeline depth.
func (g *Graph) BalancingDFFs() int {
	depth := g.depths()
	total := 0
	consumed := make([]bool, len(g.nodes))
	for _, n := range g.nodes {
		if n.isInput {
			continue
		}
		for _, e := range n.fanin {
			consumed[e.from] = true
			deficit := depth[n.id] - 1 - depth[e.from]
			if deficit > 0 {
				total += deficit
			}
		}
	}
	// Terminal cells (no consumers) align to the final stage.
	max := g.Stages()
	for i, n := range g.nodes {
		if n.isInput || consumed[i] {
			continue
		}
		total += max - depth[i]
	}
	return total
}

// FanoutSplitters returns the splitters needed to duplicate pulses: a node
// driving k consumers needs k−1 splitters.
func (g *Graph) FanoutSplitters() int {
	consumers := make([]int, len(g.nodes))
	for _, n := range g.nodes {
		for _, e := range n.fanin {
			consumers[e.from]++
		}
	}
	total := 0
	for _, c := range consumers {
		if c > 1 {
			total += c - 1
		}
	}
	return total
}

// Inventory returns the full cell multiset of the pipelined unit: the
// declared cells, their edge wire cells, the path-balancing DFFs, fan-out
// splitters, one clock splitter per clocked cell, and two interconnect JTLs
// per cell — the counts the estimator's power/area models consume.
func (g *Graph) Inventory() sfq.Inventory {
	inv := sfq.Inventory{}
	clocked := 0
	for _, n := range g.nodes {
		if n.isInput {
			continue
		}
		inv.AddGate(n.kind, 1)
		clocked++
		for _, e := range n.fanin {
			for _, w := range e.wire {
				inv.AddGate(w, 1)
			}
		}
	}
	balance := g.BalancingDFFs()
	inv.AddGate(sfq.DFF, balance)
	inv.AddGate(sfq.Splitter, g.FanoutSplitters())
	inv.AddGate(sfq.Splitter, clocked+balance) // clock distribution
	inv.AddGate(sfq.JTL, 2*(clocked+balance))  // interconnect
	return inv
}

// Pairs returns the clocked gate pairs of the unit for the frequency model:
// one pair per (clocked or input)→clocked edge, with the edge's wire cells
// as the residual data/clock mismatch that skewing cannot remove.
func (g *Graph) Pairs(lib *sfq.Library) []clocking.Pair {
	var pairs []clocking.Pair
	dff := lib.Gate(sfq.DFF)
	for _, n := range g.nodes {
		if n.isInput {
			continue
		}
		dst := lib.Gate(n.kind)
		for _, e := range n.fanin {
			src := dff // primary inputs arrive from a latch
			if f := g.nodes[e.from]; !f.isInput {
				src = lib.Gate(f.kind)
			}
			wire := make([]sfq.Gate, len(e.wire))
			for i, w := range e.wire {
				wire[i] = lib.Gate(w)
			}
			pairs = append(pairs, clocking.Pair{Src: src, Dst: dst, MismatchWire: wire})
		}
	}
	return pairs
}

// Frequency returns the unit's clock frequency under skewed concurrent-flow
// clocking (the graph is a feed-forward pipeline by construction).
func (g *Graph) Frequency(lib *sfq.Library) float64 {
	return clocking.PipelineFrequency(g.Pairs(lib), clocking.ConcurrentFlowSkewed)
}
