package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"supernpu/internal/obs"
)

func TestIDsCoverEveryExhibit(t *testing.T) {
	// The paper's evaluation has ten figures-with-data and three tables we
	// reproduce, in paper order; the ablations follow them in the table.
	want := "fig5 fig7 fig8 fig13 fig15 fig17 fig20 fig21 fig22 fig23 table1 table2 table3"
	if got := strings.Join(IDs(), " "); got != want {
		t.Fatalf("IDs() = %s, want %s", got, want)
	}
	want = "ablation-dataflow ablation-skew ablation-dau ablation-bandwidth ablation-scaling ablation-batch ablation-memsys"
	if got := strings.Join(AblationIDs(), " "); got != want {
		t.Fatalf("AblationIDs() = %s, want %s", got, want)
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run(context.Background(), "fig99"); err == nil {
		t.Fatal("unknown exhibit ids must error")
	}
}

// TestRunUnknownIDLeavesNoTelemetry holds Run to looking an id up before
// it times or traces anything: a bad id must not add a
// supernpu_exhibit_seconds series that lives as long as the process, nor
// write an exhibit span.
func TestRunUnknownIDLeavesNoTelemetry(t *testing.T) {
	var trace bytes.Buffer
	obs.SetTraceWriter(&trace)
	defer obs.SetTraceWriter(nil)
	const id = "no-such-exhibit"
	_, err := Run(context.Background(), id)
	obs.SetTraceWriter(nil)

	want := `experiments: unknown exhibit "no-such-exhibit" (have fig5, fig7, fig8, fig13, fig15, ` +
		`fig17, fig20, fig21, fig22, fig23, table1, table2, table3 and ablations ablation-dataflow, ` +
		`ablation-skew, ablation-dau, ablation-bandwidth, ablation-scaling, ablation-batch, ablation-memsys)`
	if err == nil || err.Error() != want {
		t.Fatalf("Run(%q) error = %v, want %s", id, err, want)
	}
	var metrics bytes.Buffer
	if err := obs.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(metrics.String(), `exhibit="`+id+`"`) {
		t.Errorf("Run(%q) registered a supernpu_exhibit_seconds series", id)
	}
	if trace.Len() != 0 {
		t.Errorf("Run(%q) wrote spans: %s", id, trace.String())
	}
}

// Every exhibit must regenerate without error and carry its title.
func TestEveryExhibitRuns(t *testing.T) {
	titles := map[string]string{
		"fig5":   "Fig. 5",
		"fig7":   "Fig. 7",
		"fig8":   "Fig. 8",
		"fig13":  "Fig. 13",
		"fig15":  "Fig. 15",
		"fig17":  "Fig. 17",
		"fig20":  "Fig. 20",
		"fig21":  "Fig. 21",
		"fig22":  "Fig. 22",
		"fig23":  "Fig. 23",
		"table1": "Table I",
		"table2": "Table II",
		"table3": "Table III",
	}
	for _, id := range IDs() {
		out, err := Run(context.Background(), id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(out, titles[id]) {
			t.Errorf("%s output missing title %q", id, titles[id])
		}
		if len(out) < 100 {
			t.Errorf("%s output suspiciously short (%d bytes)", id, len(out))
		}
	}
}

func TestRunAllConcatenatesEverything(t *testing.T) {
	out, err := RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, marker := range []string{"Fig. 5", "Fig. 23", "Table III", "SuperNPU"} {
		if !strings.Contains(out, marker) {
			t.Errorf("RunAll output missing %q", marker)
		}
	}
}

func TestFig23ContainsAllDesignsAndWorkloads(t *testing.T) {
	out, err := fig23(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"TPU", "Baseline", "Buffer opt.", "Resource opt.", "SuperNPU",
		"AlexNet", "FasterRCNN", "GoogLeNet", "MobileNet", "ResNet50", "VGG16", "geomean"} {
		if !strings.Contains(out, m) {
			t.Errorf("fig23 output missing %q", m)
		}
	}
}

func TestTable3ContainsBothTechnologiesAndScenarios(t *testing.T) {
	out, err := table3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"RSFQ-SuperNPU", "ERSFQ-SuperNPU", "w/ cooling", "w/o cooling"} {
		if !strings.Contains(out, m) {
			t.Errorf("table3 output missing %q", m)
		}
	}
}
