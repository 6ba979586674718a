package supernpu

// Property-based tests of the end-to-end evaluation invariants, over
// randomly drawn valid SFQ configurations and all six workloads:
//
//   - clock frequency and effective throughput are strictly positive;
//   - the CMOS-vs-SFQ speedup is strictly positive and finite;
//   - biasing technology (RSFQ vs ERSFQ) never changes performance, so the
//     CMOS-vs-SFQ direction of any configuration is stable under it;
//   - the paper's design points keep their Fig. 23 direction on every
//     workload: the naive Baseline loses to the TPU, every optimised
//     design beats it.
//
// Random exploration (see the generator's envelope) shows the direction is
// NOT universal across arbitrary valid configs — under-buffered or narrow
// arrays legitimately lose to the TPU, which is the paper's motivating
// bottleneck — so the directional claims here are pinned to the paper's
// design points while positivity and biasing-stability are asserted for
// the whole random envelope.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"supernpu/internal/arch"
	"supernpu/internal/core"
	"supernpu/internal/sfq"
)

// randomSFQConfig draws one valid SFQ configuration: power-of-two shapes
// spanning under-resourced through over-provisioned designs.
func randomSFQConfig(rng *rand.Rand, name string) arch.Config {
	pow2 := func(lo, hi int) int { return 1 << (lo + rng.Intn(hi-lo+1)) }
	integrated := rng.Intn(2) == 1
	cfg := arch.Config{
		Name:        name,
		ArrayHeight: pow2(4, 8), ArrayWidth: pow2(4, 8), // 16..256
		Registers:     pow2(0, 3), // 1..8
		IfmapBufBytes: pow2(21, 25), IfmapChunks: pow2(0, 8),
		OutputBufBytes: pow2(21, 25), OutputChunks: pow2(0, 8),
		IntegratedOutput: integrated,
		WeightBufBytes:   pow2(14, 17),
		Tech:             sfq.RSFQ,
		MemoryBandwidth:  arch.DefaultBandwidth,
	}
	if !integrated {
		cfg.PsumBufBytes = pow2(21, 24)
	}
	return cfg
}

func TestPropertyThroughputPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	nets := Workloads()
	for i := 0; i < 40; i++ {
		cfg := randomSFQConfig(rng, fmt.Sprintf("prop%d", i))
		if err := cfg.Validate(); err != nil {
			t.Fatalf("generator produced invalid config: %v", err)
		}
		d := core.SFQDesign(cfg)
		for _, batch := range []int{1, 0} {
			net := nets[rng.Intn(len(nets))]
			ev, err := Evaluate(context.Background(), d, net, batch)
			if err != nil {
				t.Fatalf("Evaluate(context.Background(), %s, %s, %d): %v", cfg.Name, net.Name, batch, err)
			}
			if ev.Frequency <= 0 || math.IsInf(ev.Frequency, 0) || math.IsNaN(ev.Frequency) {
				t.Fatalf("frequency %v not strictly positive/finite (%s on %s)", ev.Frequency, cfg.Name, net.Name)
			}
			if ev.Throughput <= 0 || math.IsInf(ev.Throughput, 0) || math.IsNaN(ev.Throughput) {
				t.Fatalf("throughput %v not strictly positive/finite (%s on %s)", ev.Throughput, cfg.Name, net.Name)
			}
			if ev.Time <= 0 {
				t.Fatalf("batch time %v not strictly positive (%s on %s)", ev.Time, cfg.Name, net.Name)
			}
		}
	}
}

func TestPropertySpeedupPositiveFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	nets := Workloads()
	for i := 0; i < 30; i++ {
		cfg := randomSFQConfig(rng, fmt.Sprintf("spd%d", i))
		net := nets[rng.Intn(len(nets))]
		s, err := Speedup(context.Background(), core.SFQDesign(cfg), net)
		if err != nil {
			t.Fatalf("Speedup(context.Background(), %s, %s): %v", cfg.Name, net.Name, err)
		}
		if s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
			t.Fatalf("speedup %v not strictly positive/finite (%s on %s)", s, cfg.Name, net.Name)
		}
	}
}

// TestPropertySpeedupStableUnderBiasing: ERSFQ biasing changes energy, not
// timing, so the CMOS-vs-SFQ comparison of any configuration must be
// bit-identical across biasing technologies — the direction can never flip.
func TestPropertySpeedupStableUnderBiasing(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	nets := Workloads()
	for i := 0; i < 20; i++ {
		cfg := randomSFQConfig(rng, fmt.Sprintf("bias%d", i))
		d := core.SFQDesign(cfg)
		net := nets[rng.Intn(len(nets))]
		s, err := Speedup(context.Background(), d, net)
		if err != nil {
			t.Fatal(err)
		}
		// The ERSFQ variant, built as DesignByName builds it for a name.
		ecfg := cfg
		ecfg.Tech = sfq.ERSFQ
		ecfg.Name = "ERSFQ-" + cfg.Name
		se, err := Speedup(context.Background(), core.SFQDesign(ecfg), net)
		if err != nil {
			t.Fatal(err)
		}
		if s != se {
			t.Fatalf("biasing flipped performance on %s: RSFQ %v vs ERSFQ %v (%s)",
				net.Name, s, se, cfg.Name)
		}
	}
}

// TestPropertyPaperDirection pins the Fig. 23 direction on every workload:
// the naive Baseline is slower than the TPU core, and each optimised design
// is faster.
func TestPropertyPaperDirection(t *testing.T) {
	for _, net := range Workloads() {
		s, err := Speedup(context.Background(), Baseline(), net)
		if err != nil {
			t.Fatal(err)
		}
		if s >= 1 {
			t.Errorf("Baseline beats the TPU on %s (%.2fx); the paper's motivating bottleneck vanished", net.Name, s)
		}
		for _, d := range []Design{BufferOpt(), ResourceOpt(), SuperNPU()} {
			s, err := Speedup(context.Background(), d, net)
			if err != nil {
				t.Fatal(err)
			}
			if s <= 1 {
				t.Errorf("%s loses to the TPU on %s (%.2fx)", d.Name(), net.Name, s)
			}
		}
	}
}
