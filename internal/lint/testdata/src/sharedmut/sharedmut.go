// Fixture for the sharedmut rule: callbacks handed to the worker pool
// writing state captured from the enclosing scope. The violations cover
// the direct shapes (captured scalar, captured map entry, captured-slice
// append, a captured scalar written from a nested pool callback) and the interprocedural ones (a callback calling a helper whose
// call graph writes a package-level variable two hops down, and a named
// function handed to the pool with the same fact). The compliant shapes —
// per-index writes into a captured slice, mutex-guarded aggregation,
// callback-local state — must stay silent.
package sweep

import (
	"context"
	"sync"

	"supernpu/internal/lint/testdata/src/smhelper"
	"supernpu/internal/parallel"
)

// CaptureSum races every worker on one captured accumulator.
func CaptureSum(n int) (float64, error) {
	sum := 0.0
	err := parallel.ForEachContext(context.Background(), n, func(_ context.Context, i int) error {
		sum += float64(i) // want "writes the variable sum"
		return nil
	})
	return sum, err
}

// CaptureMap races every worker on one captured map header.
func CaptureMap(keys []string) (map[string]bool, error) {
	seen := map[string]bool{}
	err := parallel.ForEachContext(context.Background(), len(keys), func(_ context.Context, i int) error {
		seen[keys[i]] = true // want "an entry of the map seen"
		return nil
	})
	return seen, err
}

// CaptureAppend races every worker on the captured slice header.
func CaptureAppend(n int) ([]int, error) {
	var out []int
	err := parallel.ForEachContext(context.Background(), n, func(_ context.Context, i int) error {
		out = append(out, i) // want "writes the variable out"
		return nil
	})
	return out, err
}

// NestedCapture races the inner workers on a counter captured from the
// outermost scope. The write sits inside a callback nested in another
// callback, and only the inner callback's check reports it.
func NestedCapture(n int) (int, error) {
	hits := 0
	err := parallel.ForEachContext(context.Background(), n, func(ctx context.Context, _ int) error {
		return parallel.ForEachContext(ctx, n, func(_ context.Context, _ int) error {
			hits++ // want "writes the variable hits"
			return nil
		})
	})
	return hits, err
}

// ChainMut hides the shared write two calls down in another package.
func ChainMut(n int) error {
	return parallel.ForEachContext(context.Background(), n, func(_ context.Context, i int) error {
		smhelper.Record(i) // want "mutates shared state"
		return nil
	})
}

// NamedMut hands the pool a named callback whose call graph writes a
// package-level variable.
func NamedMut(n int) error {
	return parallel.ForEachContext(context.Background(), n, smhelper.Tally) // want "mutates shared state"
}

// GoodIndexed is the pool's order-preserving idiom: each worker owns its
// index, so the captured slice is written without overlap.
func GoodIndexed(n int) ([]int, error) {
	out := make([]int, n)
	err := parallel.ForEachContext(context.Background(), n, func(_ context.Context, i int) error {
		out[i] = i * i
		return nil
	})
	return out, err
}

// GoodLocked aggregates under a mutex; the callback synchronizes itself.
func GoodLocked(n int) (int, error) {
	var mu sync.Mutex
	total := 0
	err := parallel.ForEachContext(context.Background(), n, func(_ context.Context, i int) error {
		mu.Lock()
		total += i
		mu.Unlock()
		return nil
	})
	return total, err
}

// GoodLocal keeps all mutation on callback-local state.
func GoodLocal(n int) ([]float64, error) {
	out := make([]float64, n)
	err := parallel.ForEachContext(context.Background(), n, func(_ context.Context, i int) error {
		x := float64(i)
		x *= x
		out[i] = x
		return nil
	})
	return out, err
}

// GoodNamed hands the pool a pure named callback.
func GoodNamed(n int) error {
	return parallel.ForEachContext(context.Background(), n, smhelper.Scale)
}
