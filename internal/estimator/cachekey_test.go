package estimator

import (
	"context"
	"testing"

	"supernpu/internal/arch"
	"supernpu/internal/simcache"
)

// TestWarmHitsAllocateNothing pins the memoised estimate's hit cost: for
// every design, a repeated Estimate builds its key in a stack buffer and
// returns the shared result without allocating.
func TestWarmHitsAllocateNothing(t *testing.T) {
	simcache.ClearAll()
	t.Cleanup(simcache.ClearAll)
	ctx := context.Background()
	for _, cfg := range arch.Designs() {
		want, err := Estimate(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if got, err := Estimate(ctx, cfg); got != want || err != nil {
				t.Fatalf("%s: the hit returned (%p, %v), want the cached %p", cfg.Name, got, err, want)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a warm Estimate allocates %.1f times, want 0", cfg.Name, allocs)
		}
	}
}
