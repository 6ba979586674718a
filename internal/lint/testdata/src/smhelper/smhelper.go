// Fixture helper for the transitive sharedmut tests: a utility package
// whose exported surface bottoms out in an unsynchronized write to a
// package-level accumulator, two hops down (Record → note → hits).
package smhelper

import (
	"context"
	"errors"
)

var hits int

// Record accumulates one observation into the package-level tally.
func Record(i int) {
	note(i)
}

func note(i int) {
	hits += i
}

// Tally records its index — the named-callback shape handed straight to
// the pool.
func Tally(_ context.Context, i int) error {
	note(i)
	return nil
}

// Scale is the compliant shape: pure arithmetic on local state.
func Scale(_ context.Context, i int) error {
	if i*2 < i {
		return errors.New("smhelper: negative index")
	}
	return nil
}
