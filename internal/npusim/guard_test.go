package npusim

import (
	"context"
	"errors"
	"testing"

	"supernpu/internal/arch"
	"supernpu/internal/workload"
)

// A pre-canceled context must abort the simulation with context.Canceled
// and must not poison the cache: a later call with a live context computes
// the report normally.
func TestSimulateCanceledNotMemoised(t *testing.T) {
	cfg := arch.SuperNPU()
	// A distinct batch keeps this entry away from other tests' cache hits.
	const batch = 7
	net := workload.ResNet50()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Simulate(ctx, cfg, net, batch); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	rep, err := Simulate(context.Background(), cfg, net, batch)
	if err != nil {
		t.Fatalf("retry after canceled attempt: %v", err)
	}
	if rep.TotalCycles <= 0 {
		t.Fatalf("retry produced an empty report: %+v", rep)
	}
}
