package simcache

// A reference decoder for the binary memo keys. Decoding a key back into
// exactly the input that built it, with no bytes left over, is what makes
// the encoding injective: two inputs with equal keys decode to the same
// input. The decoder is written from the key contract (uvarint-prefixed
// strings, zig-zag varint ints, one-byte bools, eight-byte floats, a
// tagged network that is either a template index or a content record with
// its layer count before the layers, a tagged fault model), so a builder
// that drops a length prefix or a count fails here on any input, not only
// on inputs crafted to collide. It also holds the network key canonical:
// a content record equal to one of the six templates is malformed, since
// such a network must key by its index.

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"

	"supernpu/internal/arch"
	"supernpu/internal/faultinject"
	"supernpu/internal/sfq"
	"supernpu/internal/workload"
)

// keyReader consumes one key; bad records the first malformed field.
type keyReader struct {
	b   []byte
	bad bool
}

func (r *keyReader) str() string {
	n, k := binary.Uvarint(r.b)
	if k <= 0 || n > uint64(len(r.b)-k) {
		r.bad = true
		return ""
	}
	s := string(r.b[k : k+int(n)])
	r.b = r.b[k+int(n):]
	return s
}

func (r *keyReader) int() int64 {
	v, k := binary.Varint(r.b)
	if k <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[k:]
	return v
}

func (r *keyReader) byte() byte {
	if len(r.b) == 0 {
		r.bad = true
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *keyReader) bool() bool {
	switch r.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.bad = true
	return false
}

func (r *keyReader) float() float64 {
	if len(r.b) < 8 {
		r.bad = true
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// done reports whether the whole key decoded cleanly.
func (r *keyReader) done() bool { return !r.bad && len(r.b) == 0 }

func (r *keyReader) config() arch.Config {
	return arch.Config{
		Name:        r.str(),
		ArrayHeight: int(r.int()), ArrayWidth: int(r.int()),
		Registers:     int(r.int()),
		IfmapBufBytes: int(r.int()), IfmapChunks: int(r.int()),
		OutputBufBytes: int(r.int()), OutputChunks: int(r.int()),
		IntegratedOutput: r.bool(),
		PsumBufBytes:     int(r.int()),
		WeightBufBytes:   int(r.int()),
		Tech:             sfq.Technology(r.int()),
		MemoryBandwidth:  r.float(),
	}
}

// layer decodes one layer's shape fields under the given name.
func (r *keyReader) layer(name string) workload.Layer {
	return workload.Layer{
		Name: name,
		Kind: workload.Kind(r.int()),
		H:    int(r.int()), W: int(r.int()), C: int(r.int()),
		R: int(r.int()), S: int(r.int()), M: int(r.int()),
		Stride: int(r.int()), Pad: int(r.int()),
	}
}

func (r *keyReader) shape() workload.Shape { return r.layer("").Shape() }

// network decodes a network key: tag 0 and an index decode to that
// template, tag 1 to a content record.
func (r *keyReader) network() workload.Network {
	switch r.byte() {
	case 0:
		templates := workload.All()
		i, k := binary.Uvarint(r.b)
		if k <= 0 || i >= uint64(len(templates)) {
			r.bad = true
			return workload.Network{}
		}
		r.b = r.b[k:]
		return templates[i]
	case 1:
		net := r.content()
		if isTemplate(net) {
			r.bad = true // not canonical: the template's index keys it
		}
		return net
	}
	r.bad = true
	return workload.Network{}
}

// content decodes a content record: name, layer count, then the layers.
func (r *keyReader) content() workload.Network {
	net := workload.Network{Name: r.str()}
	n := r.int()
	if n < 0 || n > int64(len(r.b)) { // every layer takes at least one byte
		r.bad = true
		return net
	}
	net.Layers = make([]workload.Layer, n)
	for i := range net.Layers {
		net.Layers[i] = r.layer(r.str())
	}
	return net
}

// isTemplate reports whether net has the name and layers of one of the
// six evaluation CNNs.
func isTemplate(net workload.Network) bool {
	for _, t := range workload.All() {
		if net.Name == t.Name && slices.Equal(net.Layers, t.Layers) {
			return true
		}
	}
	return false
}

// fault decodes the fault tail; the nominal tag decodes to nil.
func (r *keyReader) fault() *faultinject.Model {
	switch r.byte() {
	case 0:
		return nil
	case 1:
		return &faultinject.Model{Seed: r.int(), IcSpread: r.float(), PulseDrop: r.float(),
			BitFlip: r.float(), MarginErosion: r.float(), SimFail: r.float()}
	}
	r.bad = true
	return nil
}

// nominal maps a disabled model to nil, the form the key keeps of it.
func nominal(fm *faultinject.Model) *faultinject.Model {
	if !fm.Enabled() {
		return nil
	}
	return fm
}

// checkDecodes asserts that every key built from the inputs decodes back
// to them exactly.
func checkDecodes(t *testing.T, cfg arch.Config, net workload.Network, batch int, fm *faultinject.Model,
	s workload.Shape, height, width, registers int) {
	t.Helper()
	r := keyReader{b: AppendFaultKey(AppendSimKey(nil, cfg, net, batch), fm)}
	gotCfg, gotNet, gotBatch, gotFault := r.config(), r.network(), int(r.int()), r.fault()
	if !r.done() || gotCfg != cfg || !slices.Equal(gotNet.Layers, net.Layers) || gotNet.Name != net.Name || gotBatch != batch ||
		!reflect.DeepEqual(gotFault, nominal(fm)) {
		t.Fatalf("simulation key does not decode to its input:\n in  %+v %+v b%d %+v\n out %+v %+v b%d %+v",
			cfg, net, batch, fm, gotCfg, gotNet, gotBatch, gotFault)
	}
	r = keyReader{b: AppendTilesKey(nil, s, height, width, registers)}
	if sh, h, w, g := r.shape(), int(r.int()), int(r.int()), int(r.int()); !r.done() || sh != s ||
		h != height || w != width || g != registers {
		t.Fatalf("tiles key does not decode to its input: %+v %dx%dx%d", s, height, width, registers)
	}
}

// TestKeysDecodeToTheirInputs runs the decoder over the paper's designs
// and CNNs, extreme values, and names built from separator bytes.
func TestKeysDecodeToTheirInputs(t *testing.T) {
	faults := []*faultinject.Model{
		nil,
		{Seed: 7},
		{Seed: math.MinInt64, IcSpread: math.Copysign(0, -1), PulseDrop: math.Inf(1), BitFlip: 1e-300,
			MarginErosion: -0.5, SimFail: math.MaxFloat64},
	}
	nets := append(workload.All(),
		workload.Network{},
		workload.Network{Name: "\x00\x1f\xff", Layers: []workload.Layer{{Name: "\x1f\x1f", Kind: -1, H: math.MinInt}}})
	for _, cfg := range append(arch.Designs(), arch.Config{Name: "\x1f", MemoryBandwidth: math.Inf(-1)}) {
		for i, net := range nets {
			fm := faults[i%len(faults)]
			checkDecodes(t, cfg, net, i-1, fm, workload.Shape{Kind: workload.Kind(i), H: i, M: -i}, 256, -64, math.MaxInt)
		}
	}
}

// TestNetworkKeyForms pins the two network key forms to the decoder. Each
// template, as the shared alias and as a deep copy, keys as tag 0 and its
// index in two bytes and decodes to the template; a renamed alias keys and
// decodes by content. A template's content record is not canonical, and
// an index past the six templates or an unknown tag is malformed.
func TestNetworkKeyForms(t *testing.T) {
	templates := workload.All()
	for i, tmpl := range templates {
		for _, net := range []workload.Network{tmpl, {Name: tmpl.Name, Layers: slices.Clone(tmpl.Layers)}} {
			key := AppendNetworkKey(nil, net)
			r := keyReader{b: key}
			if got := r.network(); !bytes.Equal(key, []byte{0, byte(i)}) || !r.done() || !reflect.DeepEqual(got, tmpl) {
				t.Errorf("%s keys as %x and decodes to %q (clean %v), want 00%02x and the template",
					net.Name, key, got.Name, r.done(), i)
			}
		}
		renamed := workload.Network{Name: tmpl.Name + "'", Layers: tmpl.Layers}
		key := AppendNetworkKey(nil, renamed)
		r := keyReader{b: key}
		if got := r.network(); key[0] != 1 || !r.done() || got.Name != renamed.Name || !slices.Equal(got.Layers, renamed.Layers) {
			t.Errorf("renamed %s keys as %x, want its content record under tag 1", tmpl.Name, key)
		}
		r = keyReader{b: appendContentKey([]byte{1}, tmpl)}
		if r.network(); r.done() {
			t.Errorf("the content record of template %s decoded as canonical", tmpl.Name)
		}
	}
	for _, key := range [][]byte{{0, byte(len(templates))}, {0, 0x80}, {0}, {2}, {}} {
		r := keyReader{b: key}
		if r.network(); r.done() {
			t.Errorf("malformed network key %x decoded cleanly", key)
		}
	}
}
