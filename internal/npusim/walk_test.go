package npusim

// The tile walk that chargeLayer's closed form replaced, kept as its
// reference, and the differential tests that hold the two equal.

import (
	"context"
	"math/rand"
	"testing"

	"supernpu/internal/arch"
	"supernpu/internal/estimator"
	"supernpu/internal/mapper"
	"supernpu/internal/mapper/mappertest"
	"supernpu/internal/srmem"
	"supernpu/internal/workload"
)

// walkLayer charges one compute layer tile by tile over mapper.Tiles, with
// the batch-fit decision and the shift-register unit costs written out as
// the simulator computed them before the closed form.
func walkLayer(cfg arch.Config, cpb float64, l workload.Layer, batch int) LayerStats {
	st := LayerStats{Layer: l}
	ef := int64(l.OutH() * l.OutW())
	peStages := cfg.PECfg().PipelineStages()

	var bIn int
	if cfg.IfmapChunks == 1 {
		bIn = cfg.IfmapBufBytes / cfg.ArrayHeight / (l.H * l.W)
	} else {
		bIn = cfg.IfmapBufBytes / (l.H * l.W * l.C)
	}
	bOut := cfg.OutputBufBytes / cfg.ArrayWidth / (l.OutH() * l.OutW())
	fits := batch <= bIn && batch <= bOut

	ifBuf := srmem.Config{WidthBytes: cfg.ArrayHeight, CapacityBytes: cfg.IfmapBufBytes, Chunks: cfg.IfmapChunks}
	recirculate := int64(ifBuf.RecirculateCycles())
	var psumMove int64
	if !cfg.IntegratedOutput {
		outBuf := srmem.Config{WidthBytes: cfg.ArrayWidth, CapacityBytes: cfg.OutputBufBytes, Chunks: cfg.OutputChunks}
		psumBuf := srmem.Config{WidthBytes: cfg.ArrayWidth, CapacityBytes: cfg.PsumBufBytes, Chunks: 1}
		psumMove = int64(outBuf.InterBufferMoveCycles(psumBuf))
	}

	for _, t := range mapper.Tiles(l, cfg.ArrayHeight, cfg.ArrayWidth, cfg.Registers) {
		st.Mappings++
		st.ComputeCycles += int64(batch)*ef*int64(t.Regs) + int64(t.Rows*peStages+t.Cols+t.Regs)
		wBytes := int64(t.Rows) * int64(t.Filters)
		st.WeightCycles += int64(t.Rows * t.Regs)
		st.DRAMCycles += int64(float64(wBytes) * cpb)
		st.DRAMBytes += wBytes
		st.BufferBytes += int64(batch) * int64(l.H*l.W*t.Channels)
		st.IfmapMoveCycles += recirculate
		if !t.FirstRowTile {
			st.PsumMoveCycles += psumMove
		}
		st.BufferBytes += int64(batch) * ef * int64(t.Filters)
		if !fits {
			spill := int64(batch) * int64(l.H*l.W*t.Channels)
			st.DRAMCycles += int64(float64(spill) * cpb)
			st.DRAMBytes += spill
		}
		st.MACs += t.MACs(batch, ef)
	}
	return st
}

// TestClassChargeMatchesTileWalk checks the closed form against the walk
// on every SFQ design, at its own DRAM rate, for every compute layer of
// the six CNNs at batches 1, 3 and 30.
func TestClassChargeMatchesTileWalk(t *testing.T) {
	for _, cfg := range arch.Designs() {
		est, err := estimator.Estimate(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cpb := cyclesPerByte(est.Frequency, cfg.MemoryBandwidth)
		for _, net := range workload.All() {
			for _, l := range net.ComputeLayers() {
				for _, batch := range []int{1, 3, 30} {
					if got, want := chargeLayer(cfg, cpb, l, batch), walkLayer(cfg, cpb, l, batch); got != want {
						t.Fatalf("%s/%s/%s b%d: closed form differs from the tile walk:\n got %+v\nwant %+v",
							cfg.Name, net.Name, l.Name, batch, got, want)
					}
				}
			}
		}
	}
}

// TestClassChargeMatchesRandomTileWalk checks the closed form against the
// walk on 20 000 seeded random compute layers, array geometries, buffer
// organisations, DRAM rates and batches, with batches that fit on-chip
// and batches that spill.
func TestClassChargeMatchesRandomTileWalk(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	fits := map[bool]int{}
	for n := 0; n < 20000; {
		c := mappertest.Draw(r)
		if !c.Layer.ComputeLayer() {
			continue
		}
		n++
		cfg := arch.SuperNPU()
		cfg.ArrayHeight, cfg.ArrayWidth, cfg.Registers = c.Height, c.Width, c.Registers
		// Capacities from 1 KB to 64 MB on a log scale, so a batch fits in
		// some buffers and spills from others.
		capacity := func() int { return 1 + r.Intn(1<<(10+r.Intn(17))) }
		cfg.IfmapBufBytes, cfg.IfmapChunks = capacity(), 1+r.Intn(64)
		cfg.OutputBufBytes, cfg.OutputChunks = capacity(), 1+r.Intn(64)
		cfg.IntegratedOutput, cfg.PsumBufBytes = r.Intn(2) == 0, 0
		if !cfg.IntegratedOutput {
			cfg.PsumBufBytes = capacity()
		}
		cpb := 1000 * r.Float64() * r.Float64()
		batch := 1 + r.Intn(32)
		fits[batch <= batchBound(cfg, c.Layer)]++
		if got, want := chargeLayer(cfg, cpb, c.Layer, batch), walkLayer(cfg, cpb, c.Layer, batch); got != want {
			t.Fatalf("%+v on %+v at %g cycles/byte, b%d: closed form differs from the tile walk:\n got %+v\nwant %+v",
				c.Layer, cfg, cpb, batch, got, want)
		}
	}
	t.Logf("fit on-chip %d times, spilled %d times", fits[true], fits[false])
	if fits[true] < 1000 || fits[false] < 1000 {
		t.Errorf("the random draw fit on-chip %d times and spilled %d times; want both often", fits[true], fits[false])
	}
}

// TestChargeLayerAllocatesNothing pins the per-layer charge's cost.
func TestChargeLayerAllocatesNothing(t *testing.T) {
	cfg := arch.SuperNPU()
	for _, l := range workload.ResNet50().ComputeLayers() {
		allocs := testing.AllocsPerRun(20, func() { chargeLayer(cfg, 2.5, l, 3) })
		if allocs != 0 {
			t.Errorf("%s: chargeLayer allocates %.1f times, want 0", l.Name, allocs)
		}
	}
}
