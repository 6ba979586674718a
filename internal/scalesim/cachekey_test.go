package scalesim

// Tests for the whole-simulation cache key: every Config field reaches it,
// inputs that differ only in where their names put separator bytes never
// share an entry, and a warm hit allocates nothing.

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"supernpu/internal/simcache"
	"supernpu/internal/workload"
)

// TestConfigKeyDistinguishesEveryField mutates each field of Config in
// turn, found by reflection so a new field cannot be missed, and checks
// the key moves.
func TestConfigKeyDistinguishesEveryField(t *testing.T) {
	base := TPU()
	ref := appendConfigKey(nil, base)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		c := base
		f := reflect.ValueOf(&c).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(2*f.Float() + 1)
		default:
			t.Fatalf("field %s has kind %s; teach this test to mutate it", typ.Field(i).Name, f.Kind())
		}
		if bytes.Equal(appendConfigKey(nil, c), ref) {
			t.Errorf("configs differing only in %s share a key", typ.Field(i).Name)
		}
	}
}

// TestSeparatorNamesDoNotShareAnEntry replays two different networks whose
// text keys (name and fields joined by 0x1f) were equal: the second one's
// only layer is the first one's second layer, under a network name that
// spells out the first layer's fields.
func TestSeparatorNamesDoNotShareAnEntry(t *testing.T) {
	simcache.ClearAll()
	t.Cleanup(simcache.ClearAll)
	ctx := context.Background()
	x := workload.Layer{Name: "x", Kind: workload.Conv, H: 8, W: 8, C: 4, R: 3, S: 3, M: 8, Stride: 1, Pad: 1}
	y := workload.Layer{Name: "y", Kind: workload.Conv, H: 8, W: 8, C: 8, R: 3, S: 3, M: 8, Stride: 1, Pad: 1}
	a := workload.Network{Name: "N", Layers: []workload.Layer{x, y}}
	b := workload.Network{Name: "N\x1fx\x1f0\x1f8\x1f8\x1f4\x1f3\x1f3\x1f8\x1f1\x1f1", Layers: []workload.Layer{y}}
	alone, err := Simulate(ctx, TPU(), b, 1)
	if err != nil {
		t.Fatal(err)
	}
	simcache.ClearAll()
	if _, err := Simulate(ctx, TPU(), a, 1); err != nil {
		t.Fatal(err)
	}
	rb, err := Simulate(ctx, TPU(), b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rb.MACs != 36864 || *rb != *alone {
		t.Fatalf("second network after the first = %+v, want its own report %+v", *rb, *alone)
	}
}

func TestWarmHitsAllocateNothing(t *testing.T) {
	simcache.ClearAll()
	t.Cleanup(simcache.ClearAll)
	ctx := context.Background()
	cfg := TPU()
	for _, net := range workload.All() {
		for _, batch := range []int{1, 0} {
			want, err := Simulate(ctx, cfg, net, batch)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if got, err := Simulate(ctx, cfg, net, batch); got != want || err != nil {
					t.Fatalf("%s batch %d: the hit returned (%p, %v), want the cached %p", net.Name, batch, got, err, want)
				}
			})
			if allocs != 0 {
				t.Errorf("%s batch %d: a warm hit allocates %.1f times, want 0", net.Name, batch, allocs)
			}
		}
	}
}
