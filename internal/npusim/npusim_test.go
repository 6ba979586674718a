package npusim

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"supernpu/internal/arch"
	"supernpu/internal/faultinject"
	"supernpu/internal/parallel"
	"supernpu/internal/sfq"
	"supernpu/internal/simcache"
	"supernpu/internal/workload"
)

func sim(t *testing.T, cfg arch.Config, net workload.Network, batch int) *Report {
	t.Helper()
	r, err := Simulate(context.Background(), cfg, net, batch)
	if err != nil {
		t.Fatalf("%s on %s: %v", net.Name, cfg.Name, err)
	}
	return r
}

func gmean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Fig. 15: the Baseline's cycles are dominated by the preparation step —
// above 90% for every CNN workload.
func TestFig15BaselinePreparationDominates(t *testing.T) {
	for _, net := range workload.All() {
		r := sim(t, arch.Baseline(), net, 1)
		if f := r.PrepFraction(); f < 0.90 {
			t.Errorf("%s: preparation fraction = %.1f%%, want > 90%%", net.Name, f*100)
		}
	}
}

// Fig. 17: the Baseline's effective performance with a single batch is a
// tiny fraction of its 3366 TMAC/s peak (the paper reports ~6.45 TMAC/s,
// below 2% utilization).
func TestFig17BaselineUtilization(t *testing.T) {
	var sum float64
	for _, net := range workload.All() {
		r := sim(t, arch.Baseline(), net, 1)
		if r.PEUtilization > 0.02 {
			t.Errorf("%s: Baseline utilization = %.2f%%, want < 2%%", net.Name, r.PEUtilization*100)
		}
		sum += r.Throughput
	}
	avg := sum / 6 / 1e12
	if avg < 1 || avg > 15 {
		t.Errorf("Baseline average effective perf = %.2f TMAC/s, want single-digit TMAC/s (paper: 6.45)", avg)
	}
}

// Table II: the batch sizes each design's buffers support.
func TestTable2MaxBatch(t *testing.T) {
	type row struct {
		net                           string
		baseline, bufferOpt, superNPU int
	}
	// FasterRCNN deviates from the paper's Table II (3/30): our detector
	// keeps the full 224×224 VGG backbone whose conv1 activations bind the
	// batch exactly as in VGG16 (see EXPERIMENTS.md).
	rows := []row{
		{"AlexNet", 1, 16, 30}, // paper: 1 / 15 / 30
		{"GoogLeNet", 1, 3, 30},
		{"MobileNet", 1, 3, 30},
		{"ResNet50", 1, 3, 30},
		{"VGG16", 1, 1, 7},
		{"FasterRCNN", 1, 1, 7},
	}
	for _, want := range rows {
		net, err := workload.ByName(want.net)
		if err != nil {
			t.Fatal(err)
		}
		if got := MaxBatch(arch.Baseline(), net); got != want.baseline {
			t.Errorf("%s Baseline batch = %d, want %d", want.net, got, want.baseline)
		}
		if got := MaxBatch(arch.BufferOpt(), net); got != want.bufferOpt {
			t.Errorf("%s Buffer-opt batch = %d, want %d", want.net, got, want.bufferOpt)
		}
		if got := MaxBatch(arch.SuperNPU(), net); got != want.superNPU {
			t.Errorf("%s SuperNPU batch = %d, want %d", want.net, got, want.superNPU)
		}
	}
}

// Fig. 20: buffer integration and division. Single-batch and max-batch
// speedups over Baseline grow with the division degree and saturate around
// 64 — the degree the paper selects.
func TestFig20BufferOptimizationSweep(t *testing.T) {
	basePerf := map[string]float64{}
	for _, net := range workload.All() {
		basePerf[net.Name] = sim(t, arch.Baseline(), net, 1).Throughput
	}
	speedup := func(chunks, batch int) float64 {
		c := arch.BufferOpt()
		c.IfmapChunks, c.OutputChunks = chunks, chunks
		var xs []float64
		for _, net := range workload.All() {
			xs = append(xs, sim(t, c, net, batch).Throughput/basePerf[net.Name])
		}
		return gmean(xs)
	}

	prev := 1.0
	for _, d := range []int{2, 4, 16, 64} {
		s := speedup(d, 1)
		if s < prev {
			t.Errorf("single-batch speedup must grow with division (d=%d: %.2f < %.2f)", d, s, prev)
		}
		prev = s
	}
	s64 := speedup(64, 1)
	if s64 < 5 || s64 > 14 {
		t.Errorf("single-batch speedup at division 64 = %.2f×, want ≈6–12× (paper: 6.26×)", s64)
	}
	// Saturation: 4096 buys little over 64.
	if speedup(4096, 1) > 1.25*s64 {
		t.Error("division beyond 64 must saturate (paper selects 64)")
	}
	// Max batch multiplies the gain (paper: ~20× at division 64).
	m64 := speedup(64, 0)
	if m64 < 15 || m64 > 33 {
		t.Errorf("max-batch speedup at division 64 = %.2f×, want ≈20–30× (paper: 20×)", m64)
	}
}

// Fig. 21: resource balancing. With grown buffers, width 128 and 64 are the
// sweet spots; narrower arrays lose peak faster than intensity gains.
func TestFig21ResourceBalancing(t *testing.T) {
	basePerf := map[string]float64{}
	for _, net := range workload.All() {
		basePerf[net.Name] = sim(t, arch.Baseline(), net, 1).Throughput
	}
	at := func(width, bufMB int) float64 {
		c := arch.BufferOpt()
		c.ArrayWidth = width
		c.IfmapBufBytes = bufMB * arch.MB / 2
		c.OutputBufBytes = bufMB * arch.MB / 2
		c.OutputChunks = 64 * 256 / width
		var xs []float64
		for _, net := range workload.All() {
			xs = append(xs, sim(t, c, net, 0).Throughput/basePerf[net.Name])
		}
		return gmean(xs)
	}
	s := map[int]float64{
		256: at(256, 24), 128: at(128, 38), 64: at(64, 46), 32: at(32, 50), 16: at(16, 51),
	}
	if !(s[128] > s[256] && s[64] > s[256]) {
		t.Errorf("width 128/64 with added buffer must beat width 256: %v", s)
	}
	if !(s[32] < s[64] && s[16] < s[32]) {
		t.Errorf("too-narrow arrays must lose performance: %v", s)
	}
	// Paper: ~47× at width 128 and ~42× at width 64 — within a factor.
	if s[128] < 30 || s[64] < 25 {
		t.Errorf("sweet-spot speedups too low: w128=%.1f w64=%.1f", s[128], s[64])
	}
}

// Fig. 22: the width-64 design keeps scaling with registers per PE while
// width-128 is already memory-bound — the reason SuperNPU is 64-wide with
// 8 registers.
func TestFig22RegisterSweep(t *testing.T) {
	basePerf := map[string]float64{}
	for _, net := range workload.All() {
		basePerf[net.Name] = sim(t, arch.Baseline(), net, 1).Throughput
	}
	at := func(width, regs int) float64 {
		c := arch.BufferOpt()
		c.ArrayWidth = width
		c.Registers = regs
		if width == 64 {
			c.IfmapBufBytes, c.OutputBufBytes = 23*arch.MB, 23*arch.MB
		} else {
			c.IfmapBufBytes, c.OutputBufBytes = 19*arch.MB, 19*arch.MB
		}
		c.OutputChunks = 64 * 256 / width
		var xs []float64
		for _, net := range workload.All() {
			xs = append(xs, sim(t, c, net, 0).Throughput/basePerf[net.Name])
		}
		return gmean(xs)
	}
	w64gain := at(64, 8) / at(64, 1)
	w128gain := at(128, 8) / at(128, 1)
	if w64gain < 1.2 {
		t.Errorf("width 64 must gain from 8 registers, got %.2f×", w64gain)
	}
	if w128gain > 1.15 {
		t.Errorf("width 128 must be memory-bound (little register gain), got %.2f×", w128gain)
	}
	// Registers never hurt.
	if at(64, 8) < at(64, 1) || at(64, 16) < at(64, 8)*0.99 {
		t.Error("register scaling must be monotone non-decreasing")
	}
}

// Table III: SuperNPU chip power — ERSFQ ≈ 1.9 W (zero static), RSFQ
// ≈ 964 W (bias-resistor static dominates).
func TestTable3ChipPower(t *testing.T) {
	var dyn float64
	e := arch.SuperNPU()
	e.Tech = sfq.ERSFQ
	for _, net := range workload.All() {
		r := sim(t, e, net, 0)
		if r.StaticPower != 0 {
			t.Fatal("ERSFQ static power must be zero")
		}
		dyn += r.DynamicPower / 6
	}
	if dyn < 1.0 || dyn > 3.0 {
		t.Errorf("ERSFQ-SuperNPU dynamic power = %.2f W, want ≈1.9 W", dyn)
	}

	r := sim(t, arch.SuperNPU(), workload.ResNet50(), 0)
	total := r.TotalPower()
	if total < 900 || total > 1100 {
		t.Errorf("RSFQ-SuperNPU power = %.0f W, want ≈964 W", total)
	}
}

func TestSimulateValidation(t *testing.T) {
	bad := arch.Baseline()
	bad.ArrayHeight = 0
	if _, err := Simulate(context.Background(), bad, workload.VGG16(), 1); err == nil {
		t.Error("Simulate must reject invalid designs")
	}
	if _, err := Simulate(context.Background(), arch.Baseline(), workload.Network{Name: "x"}, 1); err == nil {
		t.Error("Simulate must reject invalid networks")
	}
	if _, err := Simulate(context.Background(), arch.Baseline(), workload.VGG16(), -3); err == nil {
		t.Error("Simulate must reject negative batches")
	}
}

// Property: MAC accounting is exact — the simulator executes precisely
// batch × network MACs regardless of design geometry.
func TestMACConservationProperty(t *testing.T) {
	nets := workload.All()
	f := func(dSel, nSel, b8 uint8) bool {
		cfg := arch.Designs()[int(dSel)%4]
		net := nets[int(nSel)%len(nets)]
		batch := 1 + int(b8)%4
		r, err := Simulate(context.Background(), cfg, net, batch)
		if err != nil {
			return false
		}
		return r.MACs == int64(batch)*net.TotalMACs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: utilization is bounded and cycle classes add up.
func TestReportInvariantsProperty(t *testing.T) {
	nets := workload.All()
	f := func(dSel, nSel uint8) bool {
		cfg := arch.Designs()[int(dSel)%4]
		net := nets[int(nSel)%len(nets)]
		r, err := Simulate(context.Background(), cfg, net, 0)
		if err != nil {
			return false
		}
		if r.PEUtilization <= 0 || r.PEUtilization > 1 {
			return false
		}
		if r.TotalCycles != r.ComputeCycles+r.PrepCycles {
			return false
		}
		// The report holds exactly one entry per compute layer, allocated
		// once at that size.
		if n := len(net.ComputeLayers()); len(r.Layers) != n || cap(r.Layers) != n {
			return false
		}
		var layerTotal int64
		for _, l := range r.Layers {
			layerTotal += l.ComputeCycles + l.PrepCycles()
		}
		// Layer totals plus the final drain equal the report total.
		return layerTotal <= r.TotalCycles && r.Time > 0 && r.Throughput > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: larger batches never reduce throughput on the optimised designs
// (more reuse per preparation), as long as the batch stays on-chip.
func TestBatchMonotonicityProperty(t *testing.T) {
	net := workload.ResNet50()
	cfg := arch.SuperNPU()
	prev := 0.0
	for _, b := range []int{1, 2, 4, 8, 16, 30} {
		r := sim(t, cfg, net, b)
		if r.Throughput < prev*0.999 {
			t.Fatalf("throughput fell from %.3g to %.3g at batch %d", prev, r.Throughput, b)
		}
		prev = r.Throughput
	}
}

func TestDepthwiseUnderutilisation(t *testing.T) {
	// Depthwise layers structurally underutilise a systolic array: each
	// channel occupies R·S rows × 1 column. MobileNet's utilization must
	// therefore trail ResNet's on the same design.
	mob := sim(t, arch.SuperNPU(), workload.MobileNet(), 0)
	res := sim(t, arch.SuperNPU(), workload.ResNet50(), 0)
	if mob.PEUtilization >= res.PEUtilization {
		t.Errorf("MobileNet util %.2f%% must trail ResNet50 %.2f%%",
			mob.PEUtilization*100, res.PEUtilization*100)
	}
}

func TestIntegrationRemovesPsumMovement(t *testing.T) {
	net := workload.ResNet50()
	base := sim(t, arch.Baseline(), net, 1)
	opt := sim(t, arch.BufferOpt(), net, 1)
	var basePsum, optPsum int64
	for _, l := range base.Layers {
		basePsum += l.PsumMoveCycles
	}
	for _, l := range opt.Layers {
		optPsum += l.PsumMoveCycles
	}
	if basePsum == 0 {
		t.Error("Baseline must pay ofmap→psum movement (Fig. 16 ①)")
	}
	if optPsum != 0 {
		t.Error("the integrated output buffer must eliminate psum movement")
	}
}

// The access-trace analyzer (Fig. 14) feeds the power model: the trace must
// be internally consistent and the power breakdown must sum to the dynamic
// total.
func TestAccessTraceAndPowerBreakdown(t *testing.T) {
	r := sim(t, arch.SuperNPU(), workload.ResNet50(), 0)
	tr := r.Trace
	if tr.MACs != r.MACs {
		t.Error("trace MACs must equal the report's MACs")
	}
	if tr.Mappings <= 0 || tr.BufferBytes <= 0 || tr.DRAMBytes <= 0 ||
		tr.DAUPixels <= 0 || tr.WeightLoads <= 0 {
		t.Fatalf("trace must record every activity class: %+v", tr)
	}
	p := r.Power
	if diff := p.Total() - r.DynamicPower; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("power breakdown (%.3g) must sum to the dynamic power (%.3g)",
			p.Total(), r.DynamicPower)
	}
	for name, v := range map[string]float64{
		"clock": p.Clock, "mac": p.MAC, "buffer": p.Buffer, "dau": p.DAU,
	} {
		if v <= 0 {
			t.Errorf("%s power must be positive, got %g", name, v)
		}
	}
	// The always-on clock network dominates the ERSFQ power story.
	e := arch.SuperNPU()
	e.Tech = sfq.ERSFQ
	re := sim(t, e, workload.ResNet50(), 0)
	if re.Power.Clock < re.Power.Buffer/10 {
		t.Error("clock distribution must be a first-order dynamic power term")
	}
}

// Property: the trace's DRAM bytes are at least the network's weight
// footprint times one pass (weights always stream in).
func TestTraceDRAMLowerBoundProperty(t *testing.T) {
	for _, cfg := range arch.Designs() {
		for _, net := range workload.All() {
			r := sim(t, cfg, net, 1)
			if r.Trace.DRAMBytes < net.TotalWeightBytes() {
				t.Errorf("%s/%s: DRAM bytes %d below weight footprint %d",
					cfg.Name, net.Name, r.Trace.DRAMBytes, net.TotalWeightBytes())
			}
		}
	}
}

// repeatedNet builds a valid network whose k compute layers all share one
// shape (a 3×3/pad-1/stride-1 conv preserves H×W, and M == C keeps the
// channel chain consistent).
func repeatedNet(k int) workload.Network {
	layers := make([]workload.Layer, k)
	for i := range layers {
		layers[i] = workload.Layer{Name: fmt.Sprintf("conv%d", i), Kind: workload.Conv,
			H: 14, W: 14, C: 64, R: 3, S: 3, M: 64, Stride: 1, Pad: 1}
	}
	return workload.Network{Name: fmt.Sprintf("repeat%d", k), Layers: layers}
}

// TestLayerDedupMultiplicity checks that k same-shaped layers charge k
// times one layer's totals at any worker count, and that every site keeps
// its own display name. Input delivery differs between the first layer
// (DRAM) and the rest (on-chip move), so sites 1..k-1 must be identical to
// each other.
func TestLayerDedupMultiplicity(t *testing.T) {
	const k = 6
	net := repeatedNet(k)
	cfg := arch.SuperNPU()

	t.Cleanup(func() {
		parallel.SetWorkers(0)
		simcache.ClearAll()
	})

	for _, w := range []int{1, 4} {
		parallel.SetWorkers(w)
		simcache.ClearAll()
		rep, err := Simulate(context.Background(), cfg, net, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Layers) != k {
			t.Fatalf("workers=%d: report has %d layers, want %d", w, len(rep.Layers), k)
		}
		if want := int64(k) * rep.Layers[0].MACs; rep.MACs != want {
			t.Errorf("workers=%d: total MACs = %d, want %d (k × per-layer)", w, rep.MACs, want)
		}
		if want := int64(k) * rep.Layers[0].ComputeCycles; rep.ComputeCycles != want {
			t.Errorf("workers=%d: compute cycles = %d, want %d (k × per-layer)", w, rep.ComputeCycles, want)
		}
		for i, st := range rep.Layers {
			if st.Layer.Name != net.Layers[i].Name {
				t.Errorf("workers=%d: layer %d kept name %q, want %q", w, i, st.Layer.Name, net.Layers[i].Name)
			}
			if i >= 2 {
				ref := rep.Layers[1]
				ref.Layer.Name = st.Layer.Name
				if st != ref {
					t.Errorf("workers=%d: layer %d stats differ from layer 1:\n got %+v\nwant %+v", w, i, st, ref)
				}
			}
		}
	}
}

func TestNegativeBatchRejectedNonNegativeMessage(t *testing.T) {
	net := repeatedNet(1)
	cfg := arch.SuperNPU()
	_, err := Simulate(context.Background(), cfg, net, -1)
	if err == nil {
		t.Fatal("negative batch accepted")
	}
	if got := err.Error(); !containsAll(got, "non-negative", "MaxBatch") {
		t.Errorf("error %q should state the non-negative requirement and the batch-0 convention", got)
	}
	_, err = SimulateFaulted(context.Background(), cfg, net, -1, &faultinject.Model{Seed: 1, BitFlip: 1e-9})
	if err == nil {
		t.Fatal("negative faulted batch accepted")
	}
	if got := err.Error(); !containsAll(got, "non-negative", "MaxBatch") {
		t.Errorf("faulted error %q should state the non-negative requirement and the batch-0 convention", got)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

// poolFirst returns net behind a shape-preserving 1×1 pool, so the first
// compute layer is no longer the network's first layer.
func poolFirst(net workload.Network) workload.Network {
	f := net.Layers[0]
	pool := workload.Layer{Name: "entry-pool", Kind: workload.Pool,
		H: f.H, W: f.W, C: f.C, R: 1, S: 1, M: f.C, Stride: 1}
	return workload.Network{Name: net.Name + "-pool-first",
		Layers: append([]workload.Layer{pool}, net.Layers...)}
}

// TestPoolFirstNetworkFetchesInputs checks that the network input is
// fetched from DRAM by the first compute layer, not by the network's first
// layer: a pool layer in front of a network changes none of its cycles,
// DRAM bytes or MACs.
func TestPoolFirstNetworkFetchesInputs(t *testing.T) {
	for _, cfg := range arch.Designs() {
		for _, net := range workload.All() {
			for _, batch := range []int{1, 0} {
				want := sim(t, cfg, net, batch)
				got := sim(t, cfg, poolFirst(net), batch)
				if got.TotalCycles != want.TotalCycles || got.PrepCycles != want.PrepCycles ||
					got.Trace.DRAMBytes != want.Trace.DRAMBytes || got.MACs != want.MACs {
					t.Errorf("%s/%s/b%d: pool-first reads %d cycles (%d prep), %d DRAM bytes, %d MACs; "+
						"want %d cycles (%d prep), %d DRAM bytes, %d MACs",
						cfg.Name, net.Name, batch,
						got.TotalCycles, got.PrepCycles, got.Trace.DRAMBytes, got.MACs,
						want.TotalCycles, want.PrepCycles, want.Trace.DRAMBytes, want.MACs)
				}
			}
		}
	}
}
