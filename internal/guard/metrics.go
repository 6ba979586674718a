// Guard instruments. Write-only from this package and from the modeling
// packages that call into it (the obsflow lint rule enforces the
// direction).

package guard

import "supernpu/internal/obs"

var mCancellations = obs.Default.Counter("supernpu_guard_cancellations_total",
	"context cancellations and deadline expiries mapped into the guard taxonomy")
