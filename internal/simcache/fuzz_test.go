// Native Go fuzz target for key injectivity: the memo caches rely on the
// binary keys — AppendConfigKey/AppendNetworkKey/AppendSimKey with the
// AppendFaultKey tail — being collision-free: two distinct inputs sharing
// a key would silently serve one input's simulation result for the other.
// The tile-plan key AppendTilesKey is held to the same standard. The
// fuzzer derives two of each key's inputs from the input bytes, with names
// drawn from all 256 byte values and networks that are sometimes one of
// the six templates, as the shared alias or a deep copy, or a template
// copy with one change, and checks keys are equal exactly when the values
// are and that each binary key decodes back to its inputs (decode_test.go).
// Seed corpus in testdata/fuzz/; run with
//
//	go test ./internal/simcache -run='^$' -fuzz=FuzzKeyInjectivity -fuzztime=30s
package simcache

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"supernpu/internal/arch"
	"supernpu/internal/faultinject"
	"supernpu/internal/sfq"
	"supernpu/internal/workload"
)

// byteFeed deals bounded values off a fuzz input, cycling when exhausted so
// any input length yields fully populated structures.
type byteFeed struct {
	data []byte
	pos  int
}

func (f *byteFeed) next() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[f.pos%len(f.data)]
	f.pos++
	return b
}

// name draws n bytes of any value: keys must stay injective whatever bytes
// a name holds, separators and invalid UTF-8 included.
func (f *byteFeed) name(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = f.next()
	}
	return string(out)
}

func (f *byteFeed) intIn(lo, hi int) int {
	span := hi - lo + 1
	return lo + (int(f.next())<<8|int(f.next()))%span
}

// config derives one arch.Config from the feed. Values need not be valid
// designs — keys must be injective over the whole struct space.
func (f *byteFeed) config() arch.Config {
	tech := sfq.RSFQ
	if f.next()%2 == 1 {
		tech = sfq.ERSFQ
	}
	return arch.Config{
		Name:        f.name(int(f.next()) % 8),
		ArrayHeight: f.intIn(0, 4096), ArrayWidth: f.intIn(0, 4096),
		Registers:     f.intIn(0, 64),
		IfmapBufBytes: f.intIn(0, 1<<26), IfmapChunks: f.intIn(0, 256),
		OutputBufBytes: f.intIn(0, 1<<26), OutputChunks: f.intIn(0, 256),
		IntegratedOutput: f.next()%2 == 1,
		PsumBufBytes:     f.intIn(0, 1<<26),
		WeightBufBytes:   f.intIn(0, 1<<20),
		Tech:             tech,
		MemoryBandwidth:  float64(f.intIn(0, 1<<30)),
	}
}

// shape derives one layer shape from the feed.
func (f *byteFeed) shape() workload.Shape {
	return workload.Shape{
		Kind: workload.Kind(f.next() % 4),
		H:    f.intIn(0, 512), W: f.intIn(0, 512), C: f.intIn(0, 512),
		R: f.intIn(0, 16), S: f.intIn(0, 16), M: f.intIn(0, 512),
		Stride: f.intIn(0, 8), Pad: f.intIn(0, 8),
	}
}

// faultModel derives a nil, disabled or enabled fault model from the feed.
func (f *byteFeed) faultModel() *faultinject.Model {
	switch f.next() % 4 {
	case 0:
		return nil
	case 1:
		return &faultinject.Model{Seed: int64(f.intIn(0, 1<<16)) - 1<<15}
	}
	rate := func() float64 { return float64(f.intIn(0, 3)) / 8 }
	return &faultinject.Model{
		Seed:     int64(f.intIn(0, 1<<16)) - 1<<15,
		IcSpread: rate(), PulseDrop: rate(), BitFlip: rate(),
		MarginErosion: rate(), SimFail: rate(),
	}
}

// sameFault reports whether two models must share a key: both inject
// nothing, or both inject with equal settings.
func sameFault(a, b *faultinject.Model) bool {
	if !a.Enabled() || !b.Enabled() {
		return a.Enabled() == b.Enabled()
	}
	return *a == *b
}

// network derives one workload from the feed: one of the six templates
// as the shared alias workload.All hands out, a fresh deep copy of one, a
// copy with one change (mutant), or a small random network. Templates key
// by their index and everything else by content, so pairs across these
// cases are where the two key forms could disagree with equality.
func (f *byteFeed) network() workload.Network {
	pick := func() workload.Network {
		templates := workload.All()
		return templates[int(f.next())%len(templates)]
	}
	switch f.next() % 8 {
	case 5:
		return pick()
	case 6:
		t := pick()
		return workload.Network{Name: t.Name, Layers: slices.Clone(t.Layers)}
	case 7:
		return f.mutant(pick())
	}
	layers := make([]workload.Layer, int(f.next())%4)
	for i := range layers {
		layers[i] = workload.Layer{
			Name: f.name(int(f.next()) % 6),
			Kind: workload.Kind(f.next() % 4),
			H:    f.intIn(0, 512), W: f.intIn(0, 512), C: f.intIn(0, 512),
			R: f.intIn(0, 16), S: f.intIn(0, 16), M: f.intIn(0, 512),
			Stride: f.intIn(0, 8), Pad: f.intIn(0, 8),
		}
	}
	return workload.Network{Name: f.name(int(f.next()) % 8), Layers: layers}
}

// mutant returns a copy of template t with one change: one field of one
// layer, the network name, or the layer count (a prefix that still shares
// the template's layer array, or one layer more). t is never written.
func (f *byteFeed) mutant(t workload.Network) workload.Network {
	net := workload.Network{Name: t.Name, Layers: slices.Clone(t.Layers)}
	switch f.next() % 3 {
	case 0:
		l := &net.Layers[f.intIn(0, len(net.Layers)-1)]
		ints := [...]*int{&l.H, &l.W, &l.C, &l.R, &l.S, &l.M, &l.Stride, &l.Pad}
		switch k := int(f.next()) % (len(ints) + 2); k {
		case len(ints):
			l.Name += f.name(1)
		case len(ints) + 1:
			l.Kind++
		default:
			*ints[k]++
		}
	case 1:
		net.Name += f.name(1)
	default:
		if f.next()%2 == 0 {
			net.Layers = t.Layers[:f.intIn(0, len(t.Layers)-1)]
		} else {
			net.Layers = append(net.Layers, net.Layers[f.intIn(0, len(net.Layers)-1)])
		}
	}
	return net
}

func FuzzKeyInjectivity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte("supernpu-key-fuzz-seed"))
	f.Add([]byte{255, 254, 253, 252, 0, 0, 0, 1, 1, 1, 31, 31})
	f.Add([]byte{31, 0, 31, 0, 31})
	f.Add([]byte("layer-grain-proj-shape-batch-seed"))

	f.Fuzz(func(t *testing.T, data []byte) {
		half := len(data) / 2
		fa := &byteFeed{data: data[:half]}
		fb := &byteFeed{data: data[half:]}

		ca, cb := fa.config(), fb.config()
		if (ca == cb) != bytes.Equal(AppendConfigKey(nil, ca), AppendConfigKey(nil, cb)) {
			t.Fatalf("AppendConfigKey injectivity violated:\n a=%+v\n b=%+v", ca, cb)
		}

		na, nb := fa.network(), fb.network()
		nka, nkb := AppendNetworkKey(nil, na), AppendNetworkKey(nil, nb)
		if reflect.DeepEqual(na, nb) != bytes.Equal(nka, nkb) {
			t.Fatalf("AppendNetworkKey injectivity violated:\n a=%+v -> %x\n b=%+v -> %x", na, nka, nb, nkb)
		}

		// The whole-simulation key must also separate batch sizes and
		// fault models over identical (cfg, net).
		ba, bb := fa.intIn(0, 64), fb.intIn(0, 64)
		ma, mb := fa.faultModel(), fb.faultModel()
		ska := AppendFaultKey(AppendSimKey(nil, ca, na, ba), ma)
		skb := AppendFaultKey(AppendSimKey(nil, cb, nb, bb), mb)
		same := ca == cb && reflect.DeepEqual(na, nb) && ba == bb && sameFault(ma, mb)
		if same != bytes.Equal(ska, skb) {
			t.Fatalf("simulation key injectivity violated (batch %d vs %d, faults %+v vs %+v):\n a=%x\n b=%x",
				ba, bb, ma, mb, ska, skb)
		}

		// Each key must also decode back to exactly its inputs.
		sa, sb := fa.shape(), fb.shape()
		ha, wa, ga := fa.intIn(0, 4096), fa.intIn(0, 4096), fa.intIn(0, 64)
		hb, wb, gb := fb.intIn(0, 4096), fb.intIn(0, 4096), fb.intIn(0, 64)
		checkDecodes(t, ca, na, ba, ma, sa, ha, wa, ga)
		checkDecodes(t, cb, nb, bb, mb, sb, hb, wb, gb)

		tka := AppendTilesKey(nil, sa, ha, wa, ga)
		tkb := AppendTilesKey(nil, sb, hb, wb, gb)
		if same := sa == sb && ha == hb && wa == wb && ga == gb; same != bytes.Equal(tka, tkb) {
			t.Fatalf("AppendTilesKey injectivity violated:\n a=%x\n b=%x", tka, tkb)
		}
	})
}
