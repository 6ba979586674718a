package srmem

import (
	"testing"

	"supernpu/internal/faultinject"
)

func TestDropRetryCycles(t *testing.T) {
	c := Config{WidthBytes: 4, CapacityBytes: 1024, Chunks: 4}
	if d, r := c.DropRetryCycles(nil, 1e6, "x"); d != 0 || r != 0 {
		t.Fatalf("nil model charged %d drops, %d cycles", d, r)
	}
	fm := &faultinject.Model{Seed: 5, PulseDrop: 1e-3}
	d, r := c.DropRetryCycles(fm, 1e6, "buf")
	if d <= 0 {
		t.Fatal("no drops at 1e-3 over 1e6 shifts")
	}
	if want := d * int64(c.RecirculateCycles()); r != want {
		t.Fatalf("retry cycles %d, want drops x chunk length = %d", r, want)
	}
	d2, r2 := c.DropRetryCycles(fm, 1e6, "buf")
	if d2 != d || r2 != r {
		t.Fatal("DropRetryCycles not deterministic")
	}
}
