package jsim

import (
	"context"
	"testing"

	"supernpu/internal/faultinject"
)

func TestPerturbedJTLDisabledIsStandard(t *testing.T) {
	a, b := StandardJTL(6), PerturbedJTL(6, nil)
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("node %d differs under a nil model", i)
		}
	}
}

func TestPerturbedJTLSpreadsIc(t *testing.T) {
	fm := &faultinject.Model{Seed: 4, IcSpread: 0.1}
	ch := PerturbedJTL(8, fm)
	distinct := map[float64]bool{}
	for _, n := range ch.Nodes {
		distinct[n.JJ.Ic] = true
		if n.Bias != 0.7*100e-6 {
			t.Fatalf("bias rail perturbed: %g", n.Bias)
		}
	}
	if len(distinct) < 4 {
		t.Fatalf("Ic spread produced only %d distinct values over 8 junctions", len(distinct))
	}
	again := PerturbedJTL(8, &faultinject.Model{Seed: 4, IcSpread: 0.1})
	for i := range ch.Nodes {
		if ch.Nodes[i] != again.Nodes[i] {
			t.Fatalf("node %d not reproducible under the same seed", i)
		}
	}
}

func TestBiasMarginsFaultedNarrowsWindow(t *testing.T) {
	nominal, err := BiasMargins(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fm := &faultinject.Model{Seed: 11, IcSpread: 0.08}
	faulted, err := BiasMarginsFaultedBatch(context.Background(), []*faultinject.Model{fm})
	if err != nil {
		t.Fatal(err)
	}
	if w := faulted[0].High - faulted[0].Low; w >= nominal.High-nominal.Low {
		t.Fatalf("8%% Ic spread did not narrow the bias window: %+v vs nominal %+v", faulted[0], nominal)
	}
	if faulted[0].High < faulted[0].Low {
		t.Fatalf("negative margin window: %+v", faulted[0])
	}
	// Disabled model shares the nominal extraction.
	same, err := BiasMarginsFaultedBatch(context.Background(), []*faultinject.Model{nil})
	if err != nil || same[0] != nominal {
		t.Fatalf("disabled model diverged from BiasMargins: %+v vs %+v (%v)", same, nominal, err)
	}
}
