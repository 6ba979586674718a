// Fixture for the nondeterminism rule. The package is named estimator so
// it falls inside the modeling-package gate.
package estimator

import (
	"fmt"
	"math/rand" // want "imports math/rand"
	"time"
)

func seed() int64 {
	return time.Now().UnixNano() // want "wall clock"
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want "wall clock"
}

func left(deadline time.Time) time.Duration {
	return time.Until(deadline) // want "wall clock"
}

func draw(r *rand.Rand) float64 {
	return r.Float64()
}

func describe(counts map[string]int) string {
	return fmt.Sprintf("%v", counts) // want "map argument"
}

func describeSlice(xs []int) string {
	return fmt.Sprintf("%v", xs) // ok: slices print in element order
}
