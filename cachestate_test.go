package supernpu

// Cache-state differential test: every memo cache (npusim, scalesim,
// estimator, jsim) is content-keyed, so what an exhibit prints must not
// depend on which entries happen to be resident when it runs. Each exhibit,
// each ablation and the seeded margin sweep is held to its golden snapshot
// in three cache states.

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// cacheStateSeed fixes the shuffled order of the third pass.
const cacheStateSeed = 25

func TestResultsIndependentOfCacheState(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every exhibit and ablation three times")
	}
	ctx := context.Background()
	ids := append(append(ExperimentIDs(), AblationIDs()...), "margin-seed42")
	golden := make(map[string]string, len(ids))
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		golden[id] = string(b)
	}
	check := func(t *testing.T, state, id string) {
		t.Helper()
		var out string
		var err error
		if id == "margin-seed42" {
			out, err = MarginSweep(ctx, MarginSweepOptions{Seed: 42})
		} else {
			out, err = RunExperiment(ctx, id)
		}
		if err != nil {
			t.Fatalf("%s, %s: %v", state, id, err)
		}
		if out != golden[id] {
			t.Errorf("%s, %s drifted from testdata/golden/%s.golden:\n%s", state, id, id, out)
		}
	}
	t.Cleanup(ClearCaches)

	t.Run("cold", func(t *testing.T) {
		for _, id := range ids {
			ClearCaches()
			check(t, "cold and alone", id)
		}
	})
	t.Run("warm", func(t *testing.T) {
		ClearCaches()
		if _, err := RunAllExperiments(ctx); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			check(t, "after the full report", id)
		}
	})
	t.Run("shuffled", func(t *testing.T) {
		ClearCaches()
		order := rand.New(rand.NewSource(cacheStateSeed)).Perm(len(ids))
		for _, k := range order {
			check(t, "shuffled with carried-over caches", ids[k])
		}
	})
}
