package simcache

// Key-injectivity tests for the tile-plan keys: every field of
// workload.Shape and of the array geometry must move the key.

import (
	"bytes"
	"testing"

	"supernpu/internal/workload"
)

func baseShape() workload.Shape {
	return workload.Shape{Kind: workload.Conv, H: 14, W: 14, C: 64,
		R: 3, S: 3, M: 128, Stride: 1, Pad: 1}
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
	ref := AppendTilesKey(nil, baseShape(), 256, 256, 1)
	for i, mutate := range mutations {
		s := baseShape()
		mutate(&s)
		if bytes.Equal(AppendTilesKey(nil, s, 256, 256, 1), ref) {
			t.Errorf("shape mutation %d: distinct shapes share a tiles key", i)
		}
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
