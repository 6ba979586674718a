package netlist

import (
	"math"
	"testing"
	"testing/quick"

	"supernpu/internal/pe"
	"supernpu/internal/sfq"
)

func lib() *sfq.Library { return sfq.NewLibrary(sfq.AIST10(), sfq.RSFQ) }

func TestGraphConstruction(t *testing.T) {
	g := New()
	a := g.Input("a")
	b := g.Input("b")
	and := g.Add(sfq.AND, "and", From(a), From(b))
	g.Add(sfq.DFF, "out", Via(and, sfq.JTL))

	if len(g.nodes) != 4 {
		t.Fatalf("%d nodes, want 4", len(g.nodes))
	}
	if g.Stages() != 2 {
		t.Fatalf("Stages() = %d, want 2 (AND then DFF)", g.Stages())
	}
	inv := g.Inventory()
	if inv[sfq.AND] != 1 || inv[sfq.JTL] < 1 {
		t.Fatalf("inventory missing declared cells: %v", inv)
	}
}

func TestWireCellsRejectedAsNodes(t *testing.T) {
	g := New()
	defer func() {
		if recover() == nil {
			t.Fatal("wire cells must be edge annotations, not nodes")
		}
	}()
	g.Add(sfq.JTL, "bad")
}

func TestTopologicalOrderEnforced(t *testing.T) {
	g := New()
	g.Input("a")
	defer func() {
		if recover() == nil {
			t.Fatal("forward references must panic")
		}
	}()
	g.Add(sfq.AND, "and", From(NodeID(99)))
}

// Path balancing: a gate fed by inputs of different clocked depth needs
// re-timing DFFs on the shallow input.
func TestBalancingDFFs(t *testing.T) {
	g := New()
	a := g.Input("a")
	b := g.Input("b")
	// a goes through two gates; b goes straight into the merge gate.
	d1 := g.Add(sfq.DFF, "d1", From(a))
	d2 := g.Add(sfq.DFF, "d2", From(d1))
	g.Add(sfq.AND, "merge", From(d2), From(b))
	// merge sits at stage 3; b (stage 0) needs 3−1−0 = 2 balancing DFFs;
	// a's path is exact.
	if got := g.BalancingDFFs(); got != 2 {
		t.Fatalf("BalancingDFFs() = %d, want 2", got)
	}
}

func TestOutputAlignment(t *testing.T) {
	g := New()
	a := g.Input("a")
	d1 := g.Add(sfq.DFF, "deep1", From(a))
	g.Add(sfq.DFF, "deep2", From(d1))  // terminal at stage 2
	g.Add(sfq.DFF, "shallow", From(a)) // terminal at stage 1 → +1 pad
	if got := g.BalancingDFFs(); got != 1 {
		t.Fatalf("terminal alignment DFFs = %d, want 1", got)
	}
}

func TestFanoutSplitters(t *testing.T) {
	g := New()
	a := g.Input("a")
	g.Add(sfq.DFF, "c1", From(a))
	g.Add(sfq.DFF, "c2", From(a))
	g.Add(sfq.DFF, "c3", From(a))
	// Three consumers → two splitters.
	if got := g.FanoutSplitters(); got != 2 {
		t.Fatalf("FanoutSplitters() = %d, want 2", got)
	}
}

// The generated MAC netlist must agree with the PE package's closed-form
// structure model: identical logic-gate counts, the same 52.6 GHz binding
// pair, and a pipeline depth in the same regime.
func TestMACMatchesPEModel(t *testing.T) {
	const bits, accBits = 8, 24
	g := MAC(bits, accBits, 1)
	peInv := pe.Default8Bit(1).Inventory()
	inv := g.Inventory()

	if inv[sfq.AND] != peInv[sfq.AND] {
		t.Errorf("AND count: netlist %d vs pe %d", inv[sfq.AND], peInv[sfq.AND])
	}
	if inv[sfq.FA] != peInv[sfq.FA] {
		t.Errorf("FA count: netlist %d vs pe %d", inv[sfq.FA], peInv[sfq.FA])
	}
	if inv[sfq.NDRO] != peInv[sfq.NDRO] {
		t.Errorf("NDRO count: netlist %d vs pe %d", inv[sfq.NDRO], peInv[sfq.NDRO])
	}

	fNet := g.Frequency(lib()) / sfq.GHz
	fPE := pe.Default8Bit(1).Frequency(lib()) / sfq.GHz
	if math.Abs(fNet-fPE) > 0.01 {
		t.Errorf("frequency: netlist %.2f GHz vs pe %.2f GHz", fNet, fPE)
	}
	if math.Abs(fNet-52.6) > 1 {
		t.Errorf("MAC netlist frequency = %.2f GHz, want ~52.6", fNet)
	}

	// The DAG stage count is the structural lower bound of the PE's
	// 15-stage pipeline (the closed form adds layout retiming margin).
	if s := g.Stages(); s < 9 || s > 18 {
		t.Errorf("MAC stages = %d, want 9..18", s)
	}

	// The netlist's structural JJ count is a lower bound on (and the bulk
	// of) the closed-form inventory that also carries layout overhead.
	jjNet, jjPE := inv.JJs(lib()), peInv.JJs(lib())
	if jjNet > jjPE {
		t.Errorf("netlist JJs (%d) must not exceed the layout-calibrated model (%d)", jjNet, jjPE)
	}
	if float64(jjNet) < 0.25*float64(jjPE) {
		t.Errorf("netlist JJs (%d) implausibly far below the model (%d)", jjNet, jjPE)
	}
}

func TestMACRegisterPlanes(t *testing.T) {
	one := MAC(8, 24, 1).Inventory()
	eight := MAC(8, 24, 8).Inventory()
	if eight[sfq.NDRO] != 8*one[sfq.NDRO] {
		t.Fatalf("8 register planes must hold 8× the NDRO bits: %d vs %d",
			eight[sfq.NDRO], one[sfq.NDRO])
	}
	if eight[sfq.MUXCell] == 0 {
		t.Fatal("multi-register MAC needs per-bit plane selectors")
	}
	l := lib()
	if MAC(8, 24, 8).Frequency(l) != MAC(8, 24, 1).Frequency(l) {
		t.Fatal("register planes must not change the binding pair frequency")
	}
}

// Property: after balancing, every fan-in of every clocked cell arrives
// exactly one stage before the cell fires — i.e. re-running the deficit
// computation on a graph with DFF chains inserted would find zero. We check
// the equivalent invariant: BalancingDFFs equals the sum of all stage
// deficits, and is non-negative and stable.
func TestBalancingDeterministicProperty(t *testing.T) {
	f := func(widths uint8) bool {
		b := 2 + int(widths)%7
		g := MAC(b, 3*b, 1)
		n1, n2 := g.BalancingDFFs(), g.BalancingDFFs()
		return n1 == n2 && n1 >= 0 && g.Stages() >= b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: inventory grows monotonically with operand width.
func TestMACWidthMonotoneProperty(t *testing.T) {
	l := lib()
	f := func(w uint8) bool {
		b := 2 + int(w)%8
		small := MAC(b, 3*b, 1).Inventory().JJs(l)
		big := MAC(b+1, 3*(b+1), 1).Inventory().JJs(l)
		return big > small
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFrequencyOfEmptyGraph(t *testing.T) {
	g := New()
	g.Input("only")
	if f := g.Frequency(lib()); !math.IsInf(f, 1) {
		t.Fatalf("a graph with no clocked pairs has unbounded frequency, got %g", f)
	}
}
