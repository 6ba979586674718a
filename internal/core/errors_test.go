package core

import (
	"context"
	"errors"
	"testing"

	"supernpu/internal/clocking"
	"supernpu/internal/netunit"
	"supernpu/internal/parallel"
	"supernpu/internal/sfq"
	"supernpu/internal/workload"
)

func TestDesignByNameReturnsSentinel(t *testing.T) {
	if _, err := DesignByName("nope"); !errors.Is(err, ErrUnknownDesign) {
		t.Fatalf("unknown design: got %v, want ErrUnknownDesign", err)
	}
	if _, err := DesignByName("ERSFQ-TPU"); !errors.Is(err, ErrUnknownDesign) {
		t.Fatalf("ERSFQ on CMOS: got %v, want ErrUnknownDesign", err)
	}
	if !IsBadInput(mustErr(DesignByName("nope"))) {
		t.Fatal("IsBadInput misses ErrUnknownDesign")
	}
}

func mustErr(_ Design, err error) error { return err }

// TestBoundaryPanicsClassifyAsBadInput drives each former boundary panic
// through the parallel pool and asserts the recovered error still matches
// its typed sentinel — the property the server's 400 mapping relies on.
func TestBoundaryPanicsClassifyAsBadInput(t *testing.T) {
	lib := sfq.NewLibrary(sfq.AIST10(), sfq.RSFQ)
	cases := []struct {
		name     string
		job      func()
		sentinel error
	}{
		{"workload kind", func() {
			(workload.Layer{Name: "x", Kind: workload.Kind(99), H: 1, W: 1, C: 1, R: 1, S: 1, M: 1, Stride: 1}).MACs()
		}, workload.ErrUnknownKind},
		{"clocking scheme", func() {
			(clocking.Pair{}).CCT(clocking.Scheme(99))
		}, clocking.ErrUnknownScheme},
		{"netunit design", func() {
			netunit.CellInventory(netunit.Design(99), netunit.Config{Width: 4, Bits: 8})
		}, netunit.ErrUnknownDesign},
		{"sfq gate", func() {
			lib.Gate(sfq.GateKind("BOGUS"))
		}, sfq.ErrUnknownGate},
	}
	for _, tc := range cases {
		err := parallel.ForEachContext(context.Background(), 1, func(_ context.Context, i int) error {
			tc.job()
			return nil
		})
		if err == nil {
			t.Fatalf("%s: panic was swallowed", tc.name)
		}
		if !errors.Is(err, tc.sentinel) {
			t.Fatalf("%s: recovered error %v does not match sentinel", tc.name, err)
		}
		if !IsBadInput(err) {
			t.Fatalf("%s: IsBadInput rejects the recovered error", tc.name)
		}
	}
	if IsBadInput(errors.New("transient solver divergence")) {
		t.Fatal("IsBadInput claims an unrelated error")
	}
}

func TestSfqLookup(t *testing.T) {
	lib := sfq.NewLibrary(sfq.AIST10(), sfq.RSFQ)
	if _, err := lib.Lookup(sfq.DFF); err != nil {
		t.Fatalf("Lookup(DFF) = %v", err)
	}
	if _, err := lib.Lookup(sfq.GateKind("BOGUS")); !errors.Is(err, sfq.ErrUnknownGate) {
		t.Fatalf("Lookup(BOGUS) = %v, want ErrUnknownGate", err)
	}
}
