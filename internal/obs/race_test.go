// Race/concurrency coverage for the registry: instruments hammered from
// parallel.ForEachContext workers (the exact pool the evaluation pipeline
// fans out through) with concurrent first registrations and scrapes in
// flight, then exact final counts asserted, and simultaneous first
// registrations of one series. Run under -race this proves the atomic
// instrument paths, registration and the snapshot-under-lock scrape are
// data-race free. The external test package avoids an import cycle with
// internal/parallel.
package obs_test

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"supernpu/internal/obs"
	"supernpu/internal/parallel"
)

func TestInstrumentsUnderParallelHammer(t *testing.T) {
	parallel.SetWorkers(8)
	t.Cleanup(func() { parallel.SetWorkers(0) })

	r := obs.NewRegistry()
	c := r.Counter("hammer_total", "hammered counter")
	g := r.Gauge("hammer_gauge", "hammered gauge")
	h := r.Histogram("hammer_seconds", "hammered histogram", obs.DurationEdges)

	const tasks, perTask = 64, 500
	err := parallel.ForEachContext(context.Background(), tasks, func(_ context.Context, i int) error {
		for j := 0; j < perTask; j++ {
			c.Inc()
			g.Inc()
			h.Observe(1) // exactly representable, so Sum is order-independent
			// GetOrCreate races: same series and per-task series.
			if r.Counter("hammer_total", "hammered counter") != c {
				t.Error("concurrent GetOrCreate returned a different counter")
			}
			if j == 0 {
				r.Counter("hammer_task_total", "per-task series", taskLabel(i)).Inc()
			}
		}
		// A scrape concurrent with the writers must not race or deadlock.
		return r.WritePrometheus(io.Discard)
	})
	if err != nil {
		t.Fatal(err)
	}

	const want = tasks * perTask
	if c.Value() != want {
		t.Errorf("counter = %d, want exactly %d", c.Value(), want)
	}
	if g.Value() != want {
		t.Errorf("gauge = %d, want exactly %d", g.Value(), want)
	}
	if h.Count() != want {
		t.Errorf("histogram count = %d, want exactly %d", h.Count(), want)
	}
	if h.Sum() != want {
		t.Errorf("histogram sum = %g, want exactly %d", h.Sum(), want)
	}
	var buckets int64
	for _, b := range h.BucketCounts() {
		buckets += b
	}
	if buckets != want {
		t.Errorf("bucket total = %d, want exactly %d", buckets, want)
	}
	// Each letter's series counts the tasks that share it, 64 in total: an
	// increment into an instrument the series does not hold goes missing.
	shared := map[obs.Label]int64{}
	for i := 0; i < tasks; i++ {
		shared[taskLabel(i)]++
	}
	for l, n := range shared {
		if got := r.Counter("hammer_task_total", "per-task series", l).Value(); got != n {
			t.Errorf("hammer_task_total{task=%q} = %d, want exactly %d", l.Value, got, n)
		}
	}
}

// taskLabel is the hammer's per-task series label: tasks i and i+26 share
// a letter.
func taskLabel(i int) obs.Label { return obs.L("task", string(rune('a'+i%26))) }

// TestConcurrentFirstRegistrationSharesOneInstrument releases callers
// together onto each new series: every caller must get the one counter the
// series holds. A registry that sets the instrument after unlocking hands
// out a second counter now and then, and -race reports its write on every
// run.
func TestConcurrentFirstRegistrationSharesOneInstrument(t *testing.T) {
	r := obs.NewRegistry()
	const series, callers = 50, 4
	for i := 0; i < series; i++ {
		name := fmt.Sprintf("first_%d_total", i)
		got := make([]*obs.Counter, callers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[g] = r.Counter(name, "first registrations")
			}()
		}
		close(start)
		wg.Wait()
		for _, c := range got[1:] {
			if c != got[0] {
				t.Fatalf("%s: concurrent first registrations returned different counters", name)
			}
		}
	}
}
