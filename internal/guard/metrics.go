// Guard instruments. Write-only from this package and from the modeling
// packages that call into it (the obsflow lint rule enforces the
// direction); counters are always-live atomics so mapping a cancellation
// never branches on the obs gate.

package guard

import "supernpu/internal/obs"

var mCancellations = obs.Default.Counter("supernpu_guard_cancellations_total",
	"context cancellations and deadline expiries mapped into the guard taxonomy")

// setBreakerState publishes the breaker state for one key as a labeled
// gauge (0 closed, 1 open).
func setBreakerState(key string, state int64) {
	obs.Default.Gauge("supernpu_guard_breaker_state",
		"divergence circuit-breaker state per design (0 closed, 1 open)",
		obs.L("design", key)).Set(state)
}
