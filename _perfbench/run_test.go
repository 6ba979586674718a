package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheChildrenCover(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server.Handler", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "server.Handler", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "server.Handler", Start: 90, End: 120},
	}
	for _, lt := range selfTimes(spans) {
		var want time.Duration
		switch lt.Name {
		case "client.request":
			want = 50 // 100 minus the union [10,50] and [90,100]
		case "server.Handler":
			want = 20 + 30 + 30
		}
		if lt.Self != want {
			t.Errorf("%s self = %d, want %d", lt.Name, lt.Self, want)
		}
	}
}

func TestUntracedTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.begin("x", "", tr.newOp(), 0)
	sp.end()
	tr.call("y", 0, sp.id(), func() {})
	if sp.id() != 0 {
		t.Error("a nil tracer handed out a span id")
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	path, err := repoFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range decl.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range decl.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkDeclared requires s to hold exactly the declared metrics, with the
// declared units.
func checkDeclared(t *testing.T, what string, s *metricSet, want map[string]string) {
	t.Helper()
	got := map[string]string{}
	for _, m := range s.list {
		got[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s metrics differ from BENCHMARK.json:\n got %v\nwant %v", what, got, want)
	}
}

var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true}

// TestWorkloads runs every workload three times with one seed, twice
// untraced and once traced. The work counts and outputs must be identical,
// since they depend on the inputs alone, and the metrics must be exactly
// those BENCHMARK.json declares, with no end-to-end metric and no per-layer
// time at zero.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	endToEnd, perLayerDecl := declared(t)
	ctx := context.Background()
	o := options{seed: 5, seconds: 1}
	for name, def := range workloads {
		var first, traced *pass
		tr := newTracer()
		for k, tr := range []*tracer{nil, nil, tr} {
			p, err := def.run(ctx, o, tr)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if p.failed != 0 {
				t.Fatalf("%s run %d: %d of %d operations failed", name, k, p.failed, p.attempted)
			}
			traced = p
			if first == nil {
				first = p
				continue
			}
			if !p.meter.work.equal(first.meter.work) {
				t.Errorf("%s run %d counts differ:\n got %v\nwant %v", name, k, p.meter.work, first.meter.work)
			}
			if p.digest != first.digest {
				t.Errorf("%s run %d outputs differ", name, k)
			}
		}
		e2e := first.endToEnd(0.001, 1)
		checkDeclared(t, name+" end-to-end", e2e, endToEnd)
		for _, m := range e2e.list {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end %s = %v", name, m.Name, m.Value)
			}
		}
		layers, err := perLayer(ctx, o, first, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		addOverhead(layers, e2e, traced.endToEnd(0.001, 1))
		checkDeclared(t, name+" per-layer", layers, perLayerDecl)
		for _, m := range layers.list {
			if timeUnits[m.Unit] && !strings.HasPrefix(m.Name, "tracing.") && !(m.Value > 0) {
				t.Errorf("%s: per-layer time %s = %v", name, m.Name, m.Value)
			}
		}
	}
}
