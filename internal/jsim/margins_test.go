package jsim

import (
	"context"
	"testing"
)

// Operating margins: the JTL must work over a healthy bias window around
// the nominal 0.7·Ic — the robustness SFQ cell libraries are quoted with.
func TestBiasMargins(t *testing.T) {
	m, err := BiasMargins(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Low >= 0.7 || m.High <= 0.7 {
		t.Fatalf("margins [%.2f, %.2f] must bracket the nominal 0.7·Ic", m.Low, m.High)
	}
	if m.Width() < 0.2 {
		t.Errorf("margin width = %.2f·Ic, want at least ±10%% around nominal", m.Width())
	}
	if m.High > 1.2 || m.Low < 0.0 {
		t.Errorf("margins [%.2f, %.2f] outside physical range", m.Low, m.High)
	}
}
