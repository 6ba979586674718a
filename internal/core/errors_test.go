package core

import (
	"errors"
	"testing"
)

func TestDesignByNameReturnsSentinel(t *testing.T) {
	if _, err := DesignByName("nope"); !errors.Is(err, ErrUnknownDesign) {
		t.Fatalf("unknown design: got %v, want ErrUnknownDesign", err)
	}
	if _, err := DesignByName("ERSFQ-TPU"); !errors.Is(err, ErrUnknownDesign) {
		t.Fatalf("ERSFQ on CMOS: got %v, want ErrUnknownDesign", err)
	}
}
