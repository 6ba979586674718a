package estimator

import (
	"context"
	"errors"
	"testing"

	"supernpu/internal/arch"
)

// A pre-canceled context aborts the estimation with context.Canceled and
// is not memoised: a live retry computes the estimate normally.
func TestEstimateCanceledNotMemoised(t *testing.T) {
	// A distinct configuration keeps this test's cache entries away from
	// every other test.
	cfg := arch.SuperNPU()
	cfg.ArrayHeight, cfg.ArrayWidth = 48, 48
	cfg.Name = "cancel-probe"

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Estimate(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	res, err := Estimate(context.Background(), cfg)
	if err != nil {
		t.Fatalf("retry after canceled attempt: %v", err)
	}
	if res.Frequency <= 0 {
		t.Fatalf("retry produced an empty estimate: %+v", res)
	}
}
