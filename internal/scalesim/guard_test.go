package scalesim

import (
	"context"
	"errors"
	"testing"

	"supernpu/internal/workload"
)

// A pre-canceled context aborts the mapping loop with context.Canceled,
// and the canceled attempt is not memoised: a live retry still computes.
func TestSimulateCanceledNotMemoised(t *testing.T) {
	const batch = 7
	net := workload.ResNet50()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Simulate(ctx, TPU(), net, batch); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	rep, err := Simulate(context.Background(), TPU(), net, batch)
	if err != nil {
		t.Fatalf("retry after canceled attempt: %v", err)
	}
	if rep.TotalCycles <= 0 {
		t.Fatalf("retry produced an empty report: %+v", rep)
	}
}
