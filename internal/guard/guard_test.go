package guard

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestClassification(t *testing.T) {
	cases := []struct {
		err                   error
		cancellation, numeric bool
	}{
		{fmt.Errorf("x: %w", context.Canceled), true, false},
		{fmt.Errorf("x: %w", context.DeadlineExceeded), true, false},
		{fmt.Errorf("x: %w", ErrDiverged), false, true},
		{fmt.Errorf("x: %w", ErrNonFinite), false, true},
		{errors.New("plain"), false, false},
	}
	for _, c := range cases {
		if got := IsCancellation(c.err); got != c.cancellation {
			t.Errorf("IsCancellation(%v) = %v, want %v", c.err, got, c.cancellation)
		}
		if got := IsNumeric(c.err); got != c.numeric {
			t.Errorf("IsNumeric(%v) = %v, want %v", c.err, got, c.numeric)
		}
	}
}
