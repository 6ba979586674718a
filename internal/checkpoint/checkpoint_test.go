package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type point struct {
	Label string
	Value float64
}

func TestPutGetAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("fresh store holds %d keys", s.Len())
	}
	if err := s.Put("a", point{"A", 1.5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", point{"B", 2.5}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var p point
	if !s2.Get("a", &p) || p != (point{"A", 1.5}) {
		t.Fatalf("lost key a: %+v", p)
	}
	if !s2.Get("b", &p) || p != (point{"B", 2.5}) {
		t.Fatalf("lost key b: %+v", p)
	}
	if s2.Get("c", &p) {
		t.Fatal("phantom key c")
	}
}

func TestTornFinalLineIsTolerated(t *testing.T) {
	// Simulate a kill mid-write: truncate the last line. A 7-byte cut tears
	// record b; a 1-byte cut loses only its newline, so b is still whole.
	for _, tc := range []struct {
		name  string
		cut   int
		keepB bool
	}{
		{"mid-record", 7, false},
		{"newline-only", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ck.jsonl")
			s, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			s.Put("a", point{"A", 1})
			s.Put("b", point{"B", 2})
			s.Close()

			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)-tc.cut], 0o644); err != nil {
				t.Fatal(err)
			}

			s2, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			var p point
			if !s2.Get("a", &p) {
				t.Fatal("intact record a lost after torn tail")
			}
			if got := s2.Get("b", &p); got != tc.keepB {
				t.Fatalf("record b present = %v after a %d-byte cut, want %v", got, tc.cut, tc.keepB)
			}
			// The store must still accept appends after a torn tail, and
			// the append must not damage the records before it.
			if err := s2.Put("c", point{"C", 3}); err != nil {
				t.Fatal(err)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			s3, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			if !s3.Get("a", &p) || p.Label != "A" {
				t.Fatal("record a lost after append and reopen")
			}
			if got := s3.Get("b", &p); got != tc.keepB {
				t.Fatalf("record b present = %v after reopen, want %v", got, tc.keepB)
			}
			if !s3.Get("c", &p) || p.Label != "C" {
				t.Fatal("append after torn tail lost")
			}
		})
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	var p point
	if s.Get("a", &p) {
		t.Fatal("nil store returned a value")
	}
	if err := s.Put("a", p); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Close() != nil {
		t.Fatal("nil store not inert")
	}
}

// TestClosedFileSurfacesWrappedErrors drives the store against a closed
// file double: once the descriptor is gone, the append path and a second
// Close must both return errors that carry the "checkpoint:" prefix and
// still unwrap to os.ErrClosed — not vanish best-effort.
func TestClosedFileSurfacesWrappedErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", point{"A", 1.5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}

	if err := s.Put("b", point{"B", 2.5}); err == nil {
		t.Fatal("Put on a closed store reported success")
	} else {
		if !strings.HasPrefix(err.Error(), "checkpoint:") {
			t.Errorf("Put error %q lacks the checkpoint: prefix", err)
		}
		if !errors.Is(err, os.ErrClosed) {
			t.Errorf("Put error %q does not unwrap to os.ErrClosed", err)
		}
	}

	if err := s.Close(); err == nil {
		t.Fatal("second close reported success")
	} else {
		if !strings.HasPrefix(err.Error(), "checkpoint:") {
			t.Errorf("Close error %q lacks the checkpoint: prefix", err)
		}
		if !errors.Is(err, os.ErrClosed) {
			t.Errorf("Close error %q does not unwrap to os.ErrClosed", err)
		}
	}

	// The failed Put must not have been indexed: a caller that retries
	// after reopening should re-run the point, not trust a phantom entry.
	var p point
	if s.Get("b", &p) {
		t.Error("failed Put left a phantom entry in the index")
	}
}
