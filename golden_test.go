package supernpu

// Golden-file regression tests: every table and figure of the reproduced
// evaluation (plus the ablation studies) is snapshotted byte-for-byte under
// testdata/golden/. Any future change to a model, a cache key or the
// parallel sweep engine that shifts an exhibit — even in the last printed
// digit — fails here and must either be fixed or consciously re-snapshotted:
//
//	go test . -run TestGolden -update
//
// The snapshots are only meaningful because the whole pipeline is
// deterministic: float reductions accumulate in fixed order (see
// sfq.Inventory.sortedKinds) and parallel sweeps join results by index.

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden/")

// checkGolden compares rendered text against testdata/golden/<id>.golden.
func checkGolden(t *testing.T, id, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", id+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file for %s (run `go test . -run TestGolden -update`): %v", id, err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from its golden snapshot.\n--- got ---\n%s\n--- want ---\n%s\n"+
			"If the change is intentional, regenerate with `go test . -run TestGolden -update`.",
			id, got, want)
	}
}

// TestGoldenExhibits locks every paper exhibit (Figs. 5–23, Tables I–III).
func TestGoldenExhibits(t *testing.T) {
	for _, id := range ExperimentIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			out, err := RunExperiment(context.Background(), id)
			if err != nil {
				t.Fatalf("RunExperiment(context.Background(), %s): %v", id, err)
			}
			checkGolden(t, id, out)
		})
	}
}

// TestGoldenAblations locks the repository's design-choice ablations.
func TestGoldenAblations(t *testing.T) {
	for _, id := range AblationIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			out, err := RunExperiment(context.Background(), id)
			if err != nil {
				t.Fatalf("RunExperiment(context.Background(), %s): %v", id, err)
			}
			checkGolden(t, id, out)
		})
	}
}

// TestGoldenFullReport locks the concatenated supernpu-repro report: the
// exhibits must also join in paper order with the exact separator bytes.
func TestGoldenFullReport(t *testing.T) {
	out, err := RunAllExperiments(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "full_report", out)
}

// TestGoldenMarginSweep locks the seeded bias-margin sweep, the one exhibit
// whose numbers come from faulted simulations: its dropped pulses, retry
// cycles and accuracy proxy are the per-layer fault tallies. It is exactly
// what `supernpu-explore -sweep margin -fault-seed 42` prints, which
// `make fault-smoke` compares against the same file.
func TestGoldenMarginSweep(t *testing.T) {
	out, err := MarginSweep(context.Background(), MarginSweepOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "margin-seed42", out)
}
