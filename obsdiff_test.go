package supernpu

// Differential observability test: the tentpole contract of internal/obs is
// that instruments and spans NEVER feed back into modeled numbers. This test
// enforces it end-to-end by regenerating the full exhibit report twice —
// untraced, and with span tracing live — and demanding byte-identical output
// both times (and identical to the committed golden snapshot). The static
// side of the same contract is the supernpu-lint obsflow rule; this is the
// dynamic side.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"supernpu/internal/obs"
)

func TestFullReportByteIdenticalWithObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full report twice")
	}
	t.Cleanup(func() { obs.SetTraceWriter(nil) })

	untraced, err := RunAllExperiments(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var trace bytes.Buffer
	obs.SetTraceWriter(&trace)
	traced, err := RunAllExperiments(context.Background())
	obs.SetTraceWriter(nil)
	if err != nil {
		t.Fatal(err)
	}
	if traced != untraced {
		t.Fatalf("report differs with span tracing live (%d vs %d bytes): tracing leaked into modeled numbers", len(traced), len(untraced))
	}

	want, err := os.ReadFile(filepath.Join("testdata", "golden", "full_report.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if untraced != string(want) {
		t.Error("untraced report drifted from testdata/golden/full_report.golden")
	}

	// The trace itself must be well-formed JSONL with the report span and
	// one exhibit span per experiment.
	lines := strings.Split(strings.TrimSuffix(trace.String(), "\n"), "\n")
	exhibits := 0
	sawReport := false
	for _, line := range lines {
		var rec struct {
			Span   string            `json:"span"`
			DurNs  int64             `json:"dur_ns"`
			Labels map[string]string `json:"labels"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line is not JSON: %v\n%q", err, line)
		}
		switch rec.Span {
		case "exhibit":
			exhibits++
		case "report":
			sawReport = true
		}
		if rec.DurNs < 0 {
			t.Errorf("span %s has negative duration %d", rec.Span, rec.DurNs)
		}
	}
	if !sawReport {
		t.Error("trace has no report span")
	}
	if want := len(ExperimentIDs()); exhibits != want {
		t.Errorf("trace has %d exhibit spans, want %d (one per experiment)", exhibits, want)
	}
}
