// Package guard is the failure taxonomy of the simulation core: two
// errors.Is-able numeric sentinels and the two classifiers the modeling
// packages, caches and front ends sort failures with.
//
// Every failure a long-running simulation can hit falls in one of two
// classes:
//
//	cancellation  context.Canceled or context.DeadlineExceeded: the
//	              caller gave up on this attempt
//	numeric       ErrDiverged or ErrNonFinite: the inputs drive the
//	              simulation out of its physical bounds
//
// Cancellations are transient: retrying the same computation with a fresh
// context can succeed, so caches must never memoise them (simcache evicts
// them, see IsCancellation). Numeric failures are deterministic properties
// of the inputs and are safe to memoise.
//
// Nothing in this package reads the wall clock or draws randomness, so
// every classification is reproducible byte for byte across runs and
// worker counts — the repository's core determinism contract.
package guard

import (
	"context"
	"errors"
)

// The numeric sentinels. The modeling packages wrap exactly one of these
// into every numeric failure, so callers classify failures with errors.Is
// and never by string.
var (
	// ErrDiverged marks a simulation whose state left its physical bounds
	// and could not recover.
	ErrDiverged = errors.New("guard: diverged")
	// ErrNonFinite marks a NaN or Inf detected in simulation state or in
	// a derived result.
	ErrNonFinite = errors.New("guard: non-finite value")
)

// IsCancellation reports whether err belongs to the cancellation class:
// context.Canceled or context.DeadlineExceeded anywhere in the chain. Such
// an error describes this particular attempt rather than the computation's
// inputs, so it must never be memoised — the same inputs can succeed under
// a fresh context.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// IsNumeric reports whether err describes a numeric simulation failure
// (divergence or a non-finite value) — evidence about the operating point,
// which the bias-margin probe treats as "does not work". Numeric failures
// are deterministic in the inputs.
func IsNumeric(err error) bool {
	return errors.Is(err, ErrDiverged) || errors.Is(err, ErrNonFinite)
}
