// Package parallel is the repository's bounded worker pool, built on the
// standard library only. It has one entry point, ForEachContext, which runs
// a job per index of a range.
//
// Every hot loop of the evaluation pipeline (figure regeneration, design-
// space sweeps, per-layer simulation, JSIM transients) fans out through this
// package, so a single knob — SetWorkers — switches the whole system between
// serial and parallel execution. Callers assemble results by index (each
// job writes its own slot of a presized slice), and the error returned is
// always the one of the lowest failing index, so output is byte-identical
// regardless of the worker count.
//
// The pool is hardened for long-running and served workloads:
//
//   - a panicking job is recovered inside its worker goroutine and surfaces
//     as a *PanicError carrying the panic value and stack, instead of
//     killing the process (an http recovery middleware cannot reach a panic
//     on a different goroutine);
//   - scheduling fails fast: after the first error or panic, workers stop
//     claiming new indices, so a failed 10 000-point sweep does not run its
//     remaining points to completion first; and
//   - it observes context cancellation between jobs, which lets a sweep
//     stop cleanly on SIGINT/SIGTERM or an expired deadline.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"supernpu/internal/obs"
)

// Pool instruments: batch and task counts are counters; the queue-wait
// histogram records the delay between a batch being submitted and each of
// its tasks being claimed by a worker. None of it feeds back into
// scheduling, so results stay byte-identical with tracing on or off.
var (
	poolRuns      = obs.Default.Counter("supernpu_pool_runs_total", "ForEachContext batches submitted to the worker pool")
	poolTasks     = obs.Default.Counter("supernpu_pool_tasks_total", "tasks executed by the worker pool")
	poolPanics    = obs.Default.Counter("supernpu_pool_panics_total", "task panics recovered into *PanicError")
	poolQueueWait = obs.Default.Histogram("supernpu_pool_queue_wait_seconds", "delay between batch submission and task claim", obs.DurationEdges)
	poolBatch     = obs.Default.Histogram("supernpu_pool_batch_tasks", "tasks per submitted batch", obs.SizeEdges)
)

func init() {
	obs.Default.GaugeFunc("supernpu_pool_workers", "effective worker count of the pool", func() float64 {
		return float64(Workers())
	})
}

// workers holds the configured worker count; 0 means runtime.NumCPU().
var workers atomic.Int64

// SetWorkers sets the maximum number of concurrent workers used by
// ForEachContext. n <= 0 resets to runtime.NumCPU(). n == 1 forces
// fully serial, in-order execution.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workers.Store(int64(n))
}

// Workers returns the effective worker count.
func Workers() int {
	if n := int(workers.Load()); n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// PanicError is a job panic converted into an error. The Error text renders
// only the panic value — deterministic, so responses that embed it stay
// byte-stable — while Stack preserves the full worker stack for logs.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the worker goroutine's stack at recovery time.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Unwrap exposes a panic value that already was an error (panicking with a
// typed sentinel keeps errors.Is working across the goroutine boundary).
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// call runs fn(ctx, i), converting a panic into a *PanicError.
func call(ctx context.Context, fn func(ctx context.Context, i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			poolPanics.Inc()
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}

// ForEachContext runs fn for every index in [0, n) using at most Workers()
// goroutines. Jobs return no value: a caller that needs results writes
// them into a slice it presized to n, each job at its own index, so the
// results come out in index order at any worker count.
//
// If any call fails, ForEachContext returns the error of the lowest failing
// index. Scheduling is fail-fast: indices not yet claimed when the first
// error (or panic) occurs are never run; indices claimed before it always
// run to completion, which is what keeps the lowest-failing-index contract
// exact — indices are claimed in increasing order, so everything below the
// first failure has already been claimed.
//
// Between jobs, workers poll ctx.Err() and stop claiming new indices once
// ctx is cancelled. When the run is cut short by cancellation (and no job
// failed first), ForEachContext returns ctx.Err() itself, so callers at any
// distance classify it with errors.Is(err, context.Canceled) (or
// context.DeadlineExceeded).
func ForEachContext(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	poolRuns.Inc()
	poolBatch.Observe(float64(n))
	submitted := time.Now()
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			poolQueueWait.Observe(time.Since(submitted).Seconds())
			poolTasks.Inc()
			if err := call(ctx, fn, i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				poolQueueWait.Observe(time.Since(submitted).Seconds())
				poolTasks.Inc()
				if errs[i] = call(ctx, fn, i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil && int(next.Load()) < n {
		return err
	}
	return nil
}
