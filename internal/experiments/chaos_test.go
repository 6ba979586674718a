package experiments

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"supernpu/internal/leaktest"
	"supernpu/internal/simcache"
)

// TestChaosMarginSweepCancellationHammer is the chaos-smoke gate (run via
// `make chaos-smoke`, which sets SUPERNPU_CHAOS=1 and -race): it hammers
// the fault-injected margin sweep with cancellations landing at staggered
// offsets — before the sweep starts, during the RCSJ transients, during
// the npusim rows — and asserts the three resilience contracts hold under
// every interleaving:
//
//  1. the only error a cancellation ever surfaces is the context's own
//     (errors.Is context.Canceled / DeadlineExceeded), never a panic, a
//     deadlock, or a mangled partial result;
//  2. no goroutine outlives its canceled sweep (leaktest);
//  3. the caches are not poisoned: after all that violence, a clean run is
//     byte-identical to the untouched reference.
func TestChaosMarginSweepCancellationHammer(t *testing.T) {
	if os.Getenv("SUPERNPU_CHAOS") == "" {
		t.Skip("chaos smoke only runs when SUPERNPU_CHAOS is set (make chaos-smoke)")
	}
	leaktest.Check(t)

	opts := smallMarginOpts(42)

	// Reference render on warm, honestly-computed caches.
	simcache.ClearAll()
	want, err := MarginSweep(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}

	// The hammer: cold caches each round so every cancellation lands on
	// real in-flight simulation work, with the timeout swept from "already
	// expired" up through the sweep's whole lifetime.
	const rounds = 14
	canceled := 0
	for i := 0; i < rounds; i++ {
		simcache.ClearAll()
		timeout := time.Duration(i) * 500 * time.Microsecond
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		out, err := MarginSweep(ctx, opts)
		cancel()
		switch {
		case err == nil:
			if out != want {
				t.Fatalf("round %d: sweep that outran its %s timeout diverged from the reference", i, timeout)
			}
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			canceled++
		default:
			t.Fatalf("round %d (timeout %s): non-cancellation failure: %v", i, timeout, err)
		}
	}
	t.Logf("hammer: %d of %d rounds canceled mid-sweep", canceled, rounds)

	// Contract 3: all those aborted attempts must not have memoised any
	// partial result — a final clean run still renders byte-identically.
	simcache.ClearAll()
	got, err := MarginSweep(context.Background(), opts)
	if err != nil {
		t.Fatalf("clean run after the hammer: %v", err)
	}
	if got != want {
		t.Fatal("margin sweep render diverged after the cancellation hammer; a canceled attempt poisoned a cache")
	}
}
