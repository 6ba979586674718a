package experiments

import (
	"context"
	"strings"
	"testing"

	"supernpu/internal/parallel"
	"supernpu/internal/simcache"
)

// smallMarginOpts keeps the sweep cheap: three spreads instead of six.
func smallMarginOpts(seed int64) MarginSweepOptions {
	return MarginSweepOptions{
		Seed:      seed,
		IcSpreads: []float64{0, 0.04, 0.08},
	}
}

func TestMarginSweepByteIdenticalAcrossRunsAndWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	var renders []string
	for _, w := range []int{1, 4, 1} {
		parallel.SetWorkers(w)
		simcache.ClearAll() // force genuine re-simulation per run
		s, err := MarginSweep(context.Background(), smallMarginOpts(42))
		if err != nil {
			t.Fatal(err)
		}
		renders = append(renders, s)
	}
	if renders[0] != renders[1] || renders[1] != renders[2] {
		t.Fatal("margin sweep output differs across runs/worker counts")
	}
	if !strings.Contains(renders[0], "seed 42") {
		t.Fatalf("exhibit does not name its seed:\n%s", renders[0])
	}
}

func TestMarginSweepSeedChangesExhibit(t *testing.T) {
	simcache.ClearAll()
	a, err := MarginSweep(context.Background(), smallMarginOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarginSweep(context.Background(), smallMarginOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different seeds produced identical exhibits")
	}
}
