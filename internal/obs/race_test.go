// Race/concurrency coverage for the registry: instruments hammered from
// parallel.ForEachContext workers (the exact pool the evaluation pipeline
// fans out through) with concurrent scrapes in flight, then exact final
// counts asserted. Run under -race this proves the atomic instrument paths and
// the snapshot-under-lock scrape are data-race free; the external test
// package avoids an import cycle with internal/parallel.
package obs_test

import (
	"context"
	"io"
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
				r.Counter("hammer_task_total", "per-task series",
					obs.L("task", string(rune('a'+i%26)))).Inc()
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
}
