package scalesim

// The tile walk that chargeLayer's closed form replaced, kept as its
// reference, and the differential tests that hold the two equal.

import (
	"math/rand"
	"testing"

	"supernpu/internal/mapper/mappertest"
	"supernpu/internal/workload"
)

// walkLayer charges one compute layer tile by tile, over the simulator's
// own single-register tiling as it stood before the closed form.
func walkLayer(cfg Config, l workload.Layer, batch int) layerCost {
	h, w := cfg.ArrayHeight, cfg.ArrayWidth
	cpb := cfg.Frequency / cfg.Bandwidth
	ef := int64(l.OutH() * l.OutW())
	fits := int64(batch)*l.WorkingSetBytes() <= cfg.BufferBytes

	type tile struct{ rows, filters, channels int }
	var tiles []tile
	if l.Kind == workload.DepthwiseConv {
		for c := 0; c < l.C; c++ {
			tiles = append(tiles, tile{rows: min(l.R*l.S, h), filters: 1, channels: 1})
		}
	} else {
		rsc := l.R * l.S * l.C
		for rt := 0; rt < (rsc+h-1)/h; rt++ {
			rows := min(h, rsc-rt*h)
			for m := 0; m < l.M; m += w {
				tiles = append(tiles, tile{
					rows: rows, filters: min(w, l.M-m),
					channels: (rows + l.R*l.S - 1) / (l.R * l.S),
				})
			}
		}
	}

	var cost layerCost
	for _, t := range tiles {
		cost.Compute += int64(batch)*ef + int64(2*t.rows+t.filters)
		wBytes := int64(t.rows) * int64(t.filters)
		cost.DRAM += int64(float64(wBytes) * cpb)
		if !fits {
			spill := int64(batch) * int64(l.H*l.W*t.channels)
			cost.DRAM += int64(float64(spill) * cpb)
		}
		cost.MACs += int64(batch) * ef * int64(t.rows) * int64(t.filters)
	}
	return cost
}

// TestClassChargeMatchesTileWalk checks the closed form against the walk
// on the TPU for every compute layer of the six CNNs at batches 1, 3 and
// 22 (the TPU's AlexNet batch).
func TestClassChargeMatchesTileWalk(t *testing.T) {
	cfg := TPU()
	for _, net := range workload.All() {
		for _, l := range net.ComputeLayers() {
			for _, batch := range []int{1, 3, 22} {
				if got, want := chargeLayer(cfg, l, batch), walkLayer(cfg, l, batch); got != want {
					t.Fatalf("%s/%s b%d: closed form %+v differs from the tile walk %+v",
						net.Name, l.Name, batch, got, want)
				}
			}
		}
	}
}

// TestClassChargeMatchesRandomTileWalk checks the closed form against the
// walk on 20 000 seeded random compute layers, array geometries, buffer
// capacities, DRAM rates and batches, with batches that fit on-chip and
// batches that spill.
func TestClassChargeMatchesRandomTileWalk(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	fits := map[bool]int{}
	for n := 0; n < 20000; {
		c := mappertest.Draw(r)
		if !c.Layer.ComputeLayer() {
			continue
		}
		n++
		cfg := TPU()
		cfg.ArrayHeight, cfg.ArrayWidth = c.Height, c.Width
		cfg.BufferBytes = 1 + r.Int63n(1<<(10+r.Intn(17)))
		cfg.Frequency = 1e8 + 3e9*r.Float64()
		cfg.Bandwidth = 1e9 + 1e12*r.Float64()*r.Float64()
		batch := 1 + r.Intn(32)
		fits[int64(batch)*c.Layer.WorkingSetBytes() <= cfg.BufferBytes]++
		if got, want := chargeLayer(cfg, c.Layer, batch), walkLayer(cfg, c.Layer, batch); got != want {
			t.Fatalf("%+v on %+v, b%d: closed form %+v differs from the tile walk %+v",
				c.Layer, cfg, batch, got, want)
		}
	}
	t.Logf("fit on-chip %d times, spilled %d times", fits[true], fits[false])
	if fits[true] < 1000 || fits[false] < 1000 {
		t.Errorf("the random draw fit on-chip %d times and spilled %d times; want both often", fits[true], fits[false])
	}
}
