package npusim_test

// The shared-entry test lives in the external test package because it
// builds one of its networks through the public facade, which imports
// npusim.

import (
	"context"
	"slices"
	"testing"

	"supernpu"
	"supernpu/internal/arch"
	"supernpu/internal/npusim"
	"supernpu/internal/simcache"
	"supernpu/internal/workload"
)

// constructors builds each CNN afresh, keyed by name.
var constructors = map[string]func() workload.Network{
	"AlexNet": workload.AlexNet, "FasterRCNN": workload.FasterRCNN, "GoogLeNet": workload.GoogLeNet,
	"MobileNet": workload.MobileNet, "ResNet50": workload.ResNet50, "VGG16": workload.VGG16,
}

// TestTemplateCopiesShareOneEntry checks that each CNN keys to one entry
// however it was built: the workload.ByName alias, the constructor's
// fresh copy and the facade's deep copy build the two-byte template key
// and return one *Report. A renamed copy, a prefix and a copy with one
// layer's M changed each get their own entry under a content key.
func TestTemplateCopiesShareOneEntry(t *testing.T) {
	simcache.ClearAll()
	t.Cleanup(simcache.ClearAll)
	ctx := context.Background()
	cfg := arch.SuperNPU()
	for _, tmpl := range workload.All() {
		alias, err := workload.ByName(tmpl.Name)
		if err != nil {
			t.Fatal(err)
		}
		facade, err := supernpu.WorkloadByName(tmpl.Name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := npusim.Simulate(ctx, cfg, alias, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, net := range []workload.Network{alias, constructors[tmpl.Name](), facade} {
			if key := simcache.AppendNetworkKey(nil, net); len(key) != 2 {
				t.Errorf("%s form %d builds a %d-byte network key, want the 2-byte template key", net.Name, i, len(key))
			}
			if got, err := npusim.Simulate(ctx, cfg, net, 1); got != want || err != nil {
				t.Errorf("%s form %d returned (%p, %v), want the shared %p", net.Name, i, got, err, want)
			}
		}
		changed := slices.Clone(tmpl.Layers)
		changed[0].M++
		for _, net := range []workload.Network{
			{Name: tmpl.Name + "-copy", Layers: tmpl.Layers},
			{Name: tmpl.Name, Layers: tmpl.Layers[:len(tmpl.Layers)-1]},
			{Name: tmpl.Name, Layers: changed},
		} {
			if key := simcache.AppendNetworkKey(nil, net); len(key) <= 2 {
				t.Errorf("%q with %d layers builds a %d-byte key, want its content key", net.Name, len(net.Layers), len(key))
			}
			if got, err := npusim.Simulate(ctx, cfg, net, 1); err != nil || got == want {
				t.Errorf("%q with %d layers returned (%p, %v), want its own report", net.Name, len(net.Layers), got, err)
			}
		}
	}
	for _, s := range simcache.Snapshot() {
		if s.Name == "npusim" && (s.Entries != 24 || s.Misses != 24 || s.Hits != 18) {
			t.Errorf("npusim cache: %d entries, %d misses, %d hits; want 24, 24 and 18 (one entry per template and per variant, three hits per template)",
				s.Entries, s.Misses, s.Hits)
		}
	}
}
