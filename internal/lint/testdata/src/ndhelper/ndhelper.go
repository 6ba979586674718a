// Fixture helper for the transitive nondeterminism tests: a non-modeling
// utility package hiding wall-clock and math/rand sinks one call below
// its exported surface. The intraprocedural gate never inspects this
// package (its name is not in modelingPackages); only the call-graph
// facts can carry the sinks back into modeling code.
package ndhelper

import (
	"math/rand"
	"time"
)

// Jitter scales x by a wall-clock-derived factor — the hidden sink is two
// hops from any modeling caller (Jitter → stamp → time.Now).
func Jitter(x float64) float64 {
	return x * stamp()
}

func stamp() float64 {
	return float64(time.Now().UnixNano())
}

// Clock hands out wall-clock readings through a pointer-receiver method,
// so a chain through it renders as ndhelper.(*Clock).Read.
type Clock struct{}

// Read returns a reading — the hidden sink is two hops from any modeling
// caller (Read → stamp → time.Now).
func (c *Clock) Read() float64 {
	return stamp()
}

// Roll draws a pseudo-random sample — the hidden sink is two hops from
// any modeling caller (Roll → draw → math/rand).
func Roll(n int) float64 {
	return draw(n)
}

func draw(n int) float64 {
	return rand.Float64() * float64(n)
}

// Scale is the compliant shape: pure arithmetic, no facts to propagate.
func Scale(x float64) float64 {
	return x * 2
}
