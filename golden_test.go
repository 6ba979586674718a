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
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"supernpu/internal/faultinject"
	"supernpu/internal/jsim"
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

// TestGoldenJSIMFullPrecision pins the RCSJ outputs the exhibits round: Fig.
// 7's stage delay and switch energy, and the 12-step bias margins of the
// nominal JTL and of seed 42 at the margin sweep's five spreads, each printed
// with %v, the shortest form that round-trips. Fig. 7 prints two digits and
// the margin sweep three, so an arithmetic change can move a transient
// without moving those goldens; it moves this one. The faulted models are
// built as MarginSweep builds them, so they share the jsim cache entries of
// TestGoldenMarginSweep.
//
// The values hold on amd64 only: on arm64 the compiler fuses a*b+c into one
// rounding, so the RK4 step may round differently there.
func TestGoldenJSIMFullPrecision(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("full-precision RCSJ values are pinned on amd64; GOARCH is %s", runtime.GOARCH)
	}
	ctx := context.Background()
	gp, err := jsim.ExtractJTLParams(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fig7 stage delay (s): %v\n", gp.StageDelay)
	fmt.Fprintf(&b, "fig7 switch energy (J/JJ): %v\n", gp.SwitchEnergyPerJJ)

	spreads := []float64{0.02, 0.04, 0.06, 0.08, 0.10}
	models := []*faultinject.Model{nil}
	for _, s := range spreads {
		models = append(models, &faultinject.Model{
			Seed: 42, IcSpread: s,
			PulseDrop: 1e-4 * s, BitFlip: 1e-2 * s, MarginErosion: 0.5 * s,
		})
	}
	margins, err := jsim.BiasMarginsFaultedBatch(ctx, models)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "margins nominal (xIc): low %v high %v\n", margins[0].Low, margins[0].High)
	for i, s := range spreads {
		m := margins[i+1]
		fmt.Fprintf(&b, "margins seed 42 spread %v (xIc): low %v high %v\n", s, m.Low, m.High)
	}
	checkGolden(t, "jsim-fullprec", b.String())
}
