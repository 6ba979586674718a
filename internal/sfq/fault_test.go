package sfq

import (
	"testing"

	"supernpu/internal/faultinject"
)

func TestNewLibraryFaultedDisabledIsNominal(t *testing.T) {
	nominal := NewLibrary(AIST10(), RSFQ)
	faulted := NewLibraryFaulted(AIST10(), RSFQ, nil)
	for k := range nominal.gates {
		if nominal.Gate(k) != faulted.Gate(k) {
			t.Fatalf("gate %s differs under a nil fault model", k)
		}
	}
}

func TestNewLibraryFaultedStretchesTiming(t *testing.T) {
	fm := &faultinject.Model{Seed: 3, MarginErosion: 0.2}
	nominal := NewLibrary(AIST10(), RSFQ)
	faulted := NewLibraryFaulted(AIST10(), RSFQ, fm)
	for k := range nominal.gates {
		n, f := nominal.Gate(k), faulted.Gate(k)
		if f.Delay <= n.Delay {
			t.Fatalf("gate %s delay not stretched: %g <= %g", k, f.Delay, n.Delay)
		}
		if n.Clocked && f.Setup <= n.Setup {
			t.Fatalf("gate %s setup not stretched", k)
		}
	}
	// Same seed reproduces the same library.
	again := NewLibraryFaulted(AIST10(), RSFQ, &faultinject.Model{Seed: 3, MarginErosion: 0.2})
	for k := range nominal.gates {
		if faulted.Gate(k) != again.Gate(k) {
			t.Fatalf("gate %s not reproducible under the same seed", k)
		}
	}
}
