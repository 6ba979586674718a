package workload

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

const mb = 1 << 20

// TestAllNetworksValidate runs the full check on every template, which
// Validate skips for them.
func TestAllNetworksValidate(t *testing.T) {
	for _, n := range All() {
		if err := n.validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}

func TestAllReturnsSixWorkloadsInFig23Order(t *testing.T) {
	want := []string{"AlexNet", "FasterRCNN", "GoogLeNet", "MobileNet", "ResNet50", "VGG16"}
	nets := All()
	if len(nets) != len(want) {
		t.Fatalf("got %d workloads, want %d", len(nets), len(want))
	}
	for i, n := range nets {
		if n.Name != want[i] {
			t.Errorf("workload %d = %s, want %s", i, n.Name, want[i])
		}
	}
}

func TestByName(t *testing.T) {
	n, err := ByName("VGG16")
	if err != nil || n.Name != "VGG16" {
		t.Fatalf("ByName(VGG16) = %v, %v", n.Name, err)
	}
	if _, err := ByName("LeNet"); err == nil {
		t.Fatal("ByName must reject unknown networks")
	}
}

// TestTemplateIndex checks which networks equal a template: the shared
// alias, a constructor's fresh copy and a deep copy do; a renamed alias, a
// prefix sharing the template's array, a copy with one layer changed and
// an empty network do not.
func TestTemplateIndex(t *testing.T) {
	fresh := []func() Network{AlexNet, FasterRCNN, GoogLeNet, MobileNet, ResNet50, VGG16}
	for i, tmpl := range All() {
		alias, _ := ByName(tmpl.Name)
		for _, net := range []Network{alias, fresh[i](), {Name: tmpl.Name, Layers: slices.Clone(tmpl.Layers)}} {
			if got, ok := TemplateIndex(net); !ok || got != i {
				t.Errorf("TemplateIndex(%s) = %d, %v; want %d, true", net.Name, got, ok, i)
			}
		}
		changed := slices.Clone(tmpl.Layers)
		changed[len(changed)-1].Name += "'"
		for _, net := range []Network{
			{Name: tmpl.Name + "'", Layers: tmpl.Layers},
			{Name: tmpl.Name, Layers: tmpl.Layers[:len(tmpl.Layers)-1]},
			{Name: tmpl.Name, Layers: changed},
			{Name: tmpl.Name},
		} {
			if got, ok := TemplateIndex(net); ok {
				t.Errorf("TemplateIndex(%q with %d layers) = %d, true; want false", net.Name, len(net.Layers), got)
			}
		}
	}
}

// Published MAC counts anchor the layer tables: VGG16 ≈ 15.5 G, ResNet-50
// ≈ 3.9 G, GoogLeNet ≈ 1.5 G, MobileNet ≈ 0.57 G multiply-adds per image.
func TestPublishedMACCounts(t *testing.T) {
	check := func(name string, wantG, tol float64) {
		t.Helper()
		n, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(n.TotalMACs()) / 1e9
		if got < wantG*(1-tol) || got > wantG*(1+tol) {
			t.Errorf("%s MACs = %.2f G, want %.2f G ±%.0f%%", name, got, wantG, tol*100)
		}
	}
	check("VGG16", 15.5, 0.05)
	check("ResNet50", 3.9, 0.10)
	check("GoogLeNet", 1.5, 0.15)
	check("MobileNet", 0.57, 0.10)
	// Faster R-CNN adds the RPN and head on top of the VGG16 backbone.
	frcnn, _ := ByName("FasterRCNN")
	vgg, _ := ByName("VGG16")
	if frcnn.TotalMACs() <= vgg.TotalMACs()-124e6 { // backbone minus VGG fc layers
		t.Error("FasterRCNN must be at least as heavy as the VGG16 backbone")
	}
}

func TestLayerGeometry(t *testing.T) {
	l := conv("x", 224, 224, 3, 7, 7, 64, 2, 3)
	if l.OutH() != 112 || l.OutW() != 112 {
		t.Fatalf("7x7/2 pad3 on 224 → %dx%d, want 112x112", l.OutH(), l.OutW())
	}
	if l.MACs() != 112*112*64*7*7*3 {
		t.Fatalf("conv MACs wrong: %d", l.MACs())
	}
	p := pool("p", 112, 112, 64, 3, 2, 1)
	if p.OutH() != 56 || p.MACs() != 0 || p.WeightBytes() != 0 {
		t.Fatal("pool layers must halve the extent and contribute no MACs/weights")
	}
	d := dwconv("d", 112, 112, 32, 3, 3, 1, 1)
	if d.MACs() != 112*112*32*9 {
		t.Fatalf("depthwise MACs wrong: %d", d.MACs())
	}
	if d.WeightBytes() != 9*32 {
		t.Fatalf("depthwise weights wrong: %d", d.WeightBytes())
	}
	f := fc("f", 4096, 1000)
	if f.MACs() != 4096*1000 || f.WorkingSetBytes() != 4096+1000 {
		t.Fatal("fc layer accounting wrong")
	}
}

func TestLayerValidation(t *testing.T) {
	bad := []Layer{
		{Name: "neg", Kind: Conv, H: -1, W: 4, C: 1, R: 1, S: 1, M: 1, Stride: 1},
		{Name: "dwMismatch", Kind: DepthwiseConv, H: 8, W: 8, C: 4, R: 3, S: 3, M: 8, Stride: 1, Pad: 1},
		{Name: "empty", Kind: Conv, H: 2, W: 2, C: 1, R: 5, S: 5, M: 1, Stride: 1, Pad: 0},
	}
	for _, l := range bad {
		if l.Validate() == nil {
			t.Errorf("Validate must reject %s", l.Name)
		}
	}
	if (Network{Name: "empty"}).Validate() == nil {
		t.Error("empty network must not validate")
	}
	broken := Network{Name: "b", Layers: []Layer{
		conv("a", 8, 8, 1, 3, 3, 4, 1, 1),
		conv("b", 99, 99, 4, 3, 3, 4, 1, 1), // nothing produces 99×99
	}}
	if broken.Validate() == nil {
		t.Error("unproducible activation extents must not validate")
	}
	poolOnly := Network{Name: "p", Layers: []Layer{pool("p", 8, 8, 4, 2, 2, 0)}}
	if err := poolOnly.Validate(); err == nil || !strings.Contains(err.Error(), "no compute layer") {
		t.Errorf("pool-only network: Validate = %v, want a no-compute-layer error", err)
	}
}

// Table II arithmetic: AlexNet's largest layer is ≈1.05 MB in+out, so the
// TPU's 24 MB buffer holds a batch of 22; VGG16's is ≈6.1 MB → batch 3 on
// 24 MB and 7 on SuperNPU's 48 MB.
func TestTable2BatchArithmetic(t *testing.T) {
	alex, _ := ByName("AlexNet")
	ws := float64(alex.MaxWorkingSetBytes()) / mb
	if ws < 0.95 || ws > 1.15 {
		t.Errorf("AlexNet max working set = %.2f MB, want ≈1.05 MB", ws)
	}
	if got := alex.MaxBatch(24 * mb); got < 21 || got > 24 {
		t.Errorf("AlexNet batch on 24 MB = %d, want ≈22", got)
	}
	vgg, _ := ByName("VGG16")
	if got := vgg.MaxBatch(24 * mb); got != 3 {
		t.Errorf("VGG16 batch on 24 MB = %d, want 3", got)
	}
	if got := vgg.MaxBatch(48 * mb); got != 7 {
		t.Errorf("VGG16 batch on 48 MB = %d, want 7", got)
	}
	// A tiny buffer still admits a single (spilling) batch.
	if got := vgg.MaxBatch(1 * mb); got != 1 {
		t.Errorf("MaxBatch must floor at 1, got %d", got)
	}
}

// Fig. 8: over 90% of naively-buffered ifmap pixels are duplicates for
// AlexNet, ResNet50 and VGG16.
func TestFig8DuplicatedPixels(t *testing.T) {
	for _, name := range []string{"AlexNet", "ResNet50", "VGG16"} {
		n, _ := ByName(name)
		r := n.DuplicatedPixelRatio()
		if r < 0.85 || r >= 1 {
			t.Errorf("%s duplicated-pixel ratio = %.1f%%, want ≳ 85%%", name, r*100)
		}
	}
	// An all-FC network has no weight-sharing duplication.
	mlp := Network{Name: "mlp", Layers: []Layer{fc("a", 64, 64)}}
	if mlp.DuplicatedPixelRatio() != 0 {
		t.Error("FC-only network must have zero duplication ratio")
	}
}

func TestMobileNetNarrowFilters(t *testing.T) {
	// The property the paper exploits: MobileNet's depthwise layers have
	// effective filter counts below 64, so a 64-wide PE array loses
	// nothing (Section VI-B).
	n, _ := ByName("MobileNet")
	dw := 0
	for _, l := range n.Layers {
		if l.Kind == DepthwiseConv {
			dw++
		}
	}
	if dw != 13 {
		t.Fatalf("MobileNet must have 13 depthwise layers, got %d", dw)
	}
}

func TestComputeLayersExcludePooling(t *testing.T) {
	n, _ := ByName("VGG16")
	for _, l := range n.ComputeLayers() {
		if l.Kind == Pool {
			t.Fatal("ComputeLayers must exclude pooling")
		}
	}
	if len(n.ComputeLayers()) != 16 {
		t.Fatalf("VGG16 has 16 compute layers (13 conv + 3 fc), got %d", len(n.ComputeLayers()))
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Conv: "conv", DepthwiseConv: "dwconv", FullyConnected: "fc", Pool: "pool", Kind(9): "Kind(9)",
	} {
		if k.String() != want {
			t.Errorf("Kind.String() = %q, want %q", k.String(), want)
		}
	}
}

// Property: MaxBatch is monotone in capacity and never below 1.
func TestMaxBatchMonotoneProperty(t *testing.T) {
	vgg, _ := ByName("VGG16")
	f := func(a, b uint32) bool {
		ca, cb := int64(a)+1, int64(b)+1
		if ca > cb {
			ca, cb = cb, ca
		}
		ba, bb := vgg.MaxBatch(ca), vgg.MaxBatch(cb)
		return ba >= 1 && bb >= ba
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: layer accounting identities — MACs of a conv layer equal
// OfmapBytes × R·S·C, and working set is input plus output.
func TestLayerAccountingProperty(t *testing.T) {
	f := func(h8, c8, r8, m8 uint8) bool {
		h := 4 + int(h8)%60
		c := 1 + int(c8)%64
		r := 1 + 2*(int(r8)%3) // 1, 3, 5
		m := 1 + int(m8)%64
		l := conv("p", h, h, c, r, r, m, 1, r/2)
		okMAC := l.MACs() == l.OfmapBytes()*int64(r)*int64(r)*int64(c)
		okWS := l.WorkingSetBytes() == l.IfmapBytes()+l.OfmapBytes()
		return okMAC && okWS
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
