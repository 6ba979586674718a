package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// withTrace installs a buffer as the span sink for one test.
func withTrace(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	SetTraceWriter(&buf)
	t.Cleanup(func() { SetTraceWriter(nil) })
	return &buf
}

func TestSpanJSONL(t *testing.T) {
	buf := withTrace(t)

	sp := StartSpan("report", L("run", "test"))
	StartSpan("exhibit", L("id", "fig7")).End()
	sp.End()

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d trace lines, want 2:\n%s", len(lines), buf.String())
	}
	var rec struct {
		Span    string            `json:"span"`
		StartNs int64             `json:"start_ns"`
		DurNs   int64             `json:"dur_ns"`
		Labels  map[string]string `json:"labels"`
	}
	// Records are written in End order, so the inner span comes first.
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("trace line is not JSON: %v\n%s", err, lines[0])
	}
	if rec.Span != "exhibit" || rec.Labels["id"] != "fig7" {
		t.Errorf("inner span = %+v, want span=exhibit labels[id]=fig7", rec)
	}
	rec.Labels = nil
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Span != "report" || rec.Labels["run"] != "test" {
		t.Errorf("root span = %+v, want span=report labels[run]=test", rec)
	}
	if rec.StartNs <= 0 || rec.DurNs < 0 {
		t.Errorf("timestamps start_ns=%d dur_ns=%d, want positive start and non-negative duration", rec.StartNs, rec.DurNs)
	}
}

func TestSpansInertWithoutWriter(t *testing.T) {
	if Tracing() {
		t.Fatal("Tracing() = true with no writer installed")
	}
	sp := StartSpan("ghost")
	if sp.live {
		t.Error("StartSpan returned a live span with no writer")
	}
	sp.End() // must be no-ops
	var zero Span
	zero.End()
}

func TestSpansInertWhenDisabled(t *testing.T) {
	buf := withTrace(t)
	defer SetEnabled(true)
	SetEnabled(false)
	StartSpan("off").End()
	if buf.Len() != 0 {
		t.Errorf("disabled span emitted %q", buf.String())
	}
}

func TestSetTraceWriterNilStops(t *testing.T) {
	buf := withTrace(t)
	StartSpan("one").End()
	SetTraceWriter(nil)
	if Tracing() {
		t.Error("Tracing() = true after SetTraceWriter(nil)")
	}
	StartSpan("two").End()
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Errorf("got %d trace lines, want only the pre-removal span", n)
	}
}
