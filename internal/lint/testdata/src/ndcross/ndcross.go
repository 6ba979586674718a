// Fixture for the transitive nondeterminism contract. The package clause
// says estimator, so this is a modeling package; every sink it reaches
// sits in ndhelper, ≥2 call hops away and across a package boundary, so
// only the interprocedural facts can find them.
package estimator

import "supernpu/internal/lint/testdata/src/ndhelper"

// Cold models a cold-start estimate but scales by a helper whose call
// graph bottoms out in time.Now.
func Cold(n int) float64 {
	return ndhelper.Jitter(float64(n)) // want "reaches time.Now"
}

// Stamped models an estimate tagged with a reading from the helper's
// clock; the call reaches time.Now through a method.
func Stamped(c *ndhelper.Clock) float64 {
	return c.Read() // want "reaches time.Now"
}

// Sample models a draw but the helper's call graph bottoms out in
// math/rand.
func Sample(n int) float64 {
	return ndhelper.Roll(n) // want "reaches math/rand"
}

// Pure calls the helper's compliant surface; no fact reaches here.
func Pure(n int) float64 {
	return ndhelper.Scale(float64(n))
}
