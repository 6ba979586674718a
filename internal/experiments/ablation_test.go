package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestAblationIDsDispatch(t *testing.T) {
	if len(AblationIDs()) != 7 {
		t.Fatalf("got %d ablations, want 7", len(AblationIDs()))
	}
	var serial strings.Builder
	for _, id := range AblationIDs() {
		out, err := Run(context.Background(), id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(out, "Ablation:") {
			t.Errorf("%s output missing the Ablation marker", id)
		}
		serial.WriteString(out + "\n")
	}
	// RunAblations renders them concurrently and joins them in table order.
	all, err := RunAblations(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if all != serial.String() {
		t.Errorf("RunAblations differs from the serial join of Run:\n%s", all)
	}
}

// The dataflow ablation must show the ~2× counter-flow penalty.
func TestAblationDataflowShowsFeedbackPenalty(t *testing.T) {
	out, err := ablationDataflow(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "weight-stationary") || !strings.Contains(out, "counter-flow") {
		t.Fatalf("missing dataflow rows:\n%s", out)
	}
	if !strings.Contains(out, "52.6") {
		t.Error("WS PE must run at the 52.6 GHz NPU clock")
	}
}

// The DAU ablation must show batch collapse for the duplication-heavy nets.
func TestAblationNoDAUCollapsesBatch(t *testing.T) {
	out, err := ablationNoDAU(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"VGG16", "AlexNet", "duplicated"} {
		if !strings.Contains(out, m) {
			t.Errorf("output missing %q", m)
		}
	}
}

// The skew ablation must report a slowdown without skew tuning.
func TestAblationSkewSlowdown(t *testing.T) {
	out, err := ablationClockSkewing(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "unskewed") {
		t.Fatalf("missing unskewed row:\n%s", out)
	}
}

// Scaling must show the linear frequency growth and the 200 nm clamp.
func TestAblationScalingRows(t *testing.T) {
	out, err := ablationScaling(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"1.00 um", "0.50 um", "0.20 um"} {
		if !strings.Contains(out, m) {
			t.Errorf("output missing %q row", m)
		}
	}
}
