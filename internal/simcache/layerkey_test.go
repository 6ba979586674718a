package simcache

// Key-injectivity tests for the layer-grain keys: every field of
// the projection structs and of workload.Shape must move the key, and the
// projection builder must capture exactly what the per-layer cycle model
// reads.

import (
	"bytes"
	"testing"

	"supernpu/internal/arch"
	"supernpu/internal/workload"
)

func baseShape() workload.Shape {
	return workload.Shape{Kind: workload.Conv, H: 14, W: 14, C: 64,
		R: 3, S: 3, M: 128, Stride: 1, Pad: 1}
}

func baseCoreProj() LayerCoreProj {
	return LayerCoreProj{ArrayHeight: 256, ArrayWidth: 256, Registers: 1,
		PipelineStages: 20, CyclesPerByte: 2.5, Fits: true}
}

func TestLayerKeyDistinguishesEveryProjField(t *testing.T) {
	mutations := []func(*LayerCoreProj){
		func(p *LayerCoreProj) { p.ArrayHeight++ },
		func(p *LayerCoreProj) { p.ArrayWidth++ },
		func(p *LayerCoreProj) { p.Registers++ },
		func(p *LayerCoreProj) { p.PipelineStages++ },
		func(p *LayerCoreProj) { p.CyclesPerByte *= 2 },
		func(p *LayerCoreProj) { p.Fits = !p.Fits },
	}
	s := baseShape()
	ref := AppendLayerKey(nil, baseCoreProj(), s, 4)
	for i, mutate := range mutations {
		p := baseCoreProj()
		mutate(&p)
		if bytes.Equal(AppendLayerKey(nil, p, s, 4), ref) {
			t.Errorf("projection mutation %d: distinct core projections share a layer key", i)
		}
	}
	if bytes.Equal(AppendLayerKey(nil, baseCoreProj(), s, 5), ref) {
		t.Error("distinct batches share a layer key")
	}
}

func TestLayerKeyDistinguishesEveryShapeField(t *testing.T) {
	mutations := []func(*workload.Shape){
		func(s *workload.Shape) { s.Kind++ },
		func(s *workload.Shape) { s.H++ },
		func(s *workload.Shape) { s.W++ },
		func(s *workload.Shape) { s.C++ },
		func(s *workload.Shape) { s.R++ },
		func(s *workload.Shape) { s.S++ },
		func(s *workload.Shape) { s.M++ },
		func(s *workload.Shape) { s.Stride++ },
		func(s *workload.Shape) { s.Pad++ },
	}
	p := baseCoreProj()
	ref := AppendLayerKey(nil, p, baseShape(), 4)
	for i, mutate := range mutations {
		s := baseShape()
		mutate(&s)
		if bytes.Equal(AppendLayerKey(nil, p, s, 4), ref) {
			t.Errorf("shape mutation %d: distinct shapes share a layer key", i)
		}
	}
}

func TestScaleLayerKeyDistinguishesEveryField(t *testing.T) {
	base := ScaleProj{ArrayHeight: 256, ArrayWidth: 256, BufferBytes: 24 << 20, CyclesPerByte: 7.0 / 3}
	mutations := []func(*ScaleProj){
		func(p *ScaleProj) { p.ArrayHeight++ },
		func(p *ScaleProj) { p.ArrayWidth++ },
		func(p *ScaleProj) { p.BufferBytes++ },
		func(p *ScaleProj) { p.CyclesPerByte *= 2 },
	}
	s := baseShape()
	ref := AppendScaleLayerKey(nil, base, s, 4)
	for i, mutate := range mutations {
		p := base
		mutate(&p)
		if bytes.Equal(AppendScaleLayerKey(nil, p, s, 4), ref) {
			t.Errorf("mutation %d: distinct CMOS projections share a layer key", i)
		}
	}
	if bytes.Equal(AppendScaleLayerKey(nil, base, s, 5), ref) {
		t.Error("distinct batches share a layer key")
	}
	other := s
	other.M++
	if bytes.Equal(AppendScaleLayerKey(nil, base, other, 4), ref) {
		t.Error("distinct shapes share a layer key")
	}
}

func TestTilesKeySeparatesShapeAndGeometry(t *testing.T) {
	s := baseShape()
	ref := AppendTilesKey(nil, s, 128, 64, 2)
	for i, k := range [][]byte{
		AppendTilesKey(nil, s, 129, 64, 2),
		AppendTilesKey(nil, s, 128, 65, 2),
		AppendTilesKey(nil, s, 128, 64, 3),
	} {
		if bytes.Equal(k, ref) {
			t.Errorf("geometry mutation %d: distinct array geometries share a tiles key", i)
		}
	}
	other := s
	other.R++
	if bytes.Equal(AppendTilesKey(nil, other, 128, 64, 2), ref) {
		t.Error("distinct shapes share a tiles key")
	}
	if TilesKey(s, 128, 64, 2) != string(ref) {
		t.Error("TilesKey differs from AppendTilesKey")
	}
}

// TestNPULayerProjTracksConfigProjection pins the builder to the fields the
// per-layer model reads: knobs outside the projection (name, weight buffer,
// logic family) must not move it, while every modeled knob must.
func TestNPULayerProjTracksConfigProjection(t *testing.T) {
	cfg := arch.SuperNPU()
	base := NPULayerProj(cfg, 2.5)

	irrelevant := cfg
	irrelevant.Name = "renamed"
	irrelevant.WeightBufBytes++
	if NPULayerProj(irrelevant, 2.5) != base {
		t.Error("projection moved on a knob the per-layer model never reads")
	}

	relevant := cfg
	relevant.IfmapChunks++
	if NPULayerProj(relevant, 2.5) == base {
		t.Error("projection ignored the ifmap division knob")
	}
	if NPULayerProj(cfg, 2.6) == base {
		t.Error("projection ignored the DRAM rate")
	}
}

// TestClearByName pins the single-family clear used by warm benchmarks.
func TestClearByName(t *testing.T) {
	c := New[int]()
	Register("layerkey-test", c)
	if _, err := c.GetOrCompute([]byte("k"), func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("cache has %d entries, want 1", c.Len())
	}
	if !Clear("layerkey-test") {
		t.Fatal("Clear did not find the registered cache")
	}
	if c.Len() != 0 {
		t.Error("Clear left entries behind")
	}
	if Clear("no-such-cache") {
		t.Error("Clear invented an unregistered cache")
	}
}
