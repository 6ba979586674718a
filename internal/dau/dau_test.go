package dau

import (
	"testing"
	"testing/quick"

	"supernpu/internal/sfq"
	"supernpu/internal/workload"
)

func layer2x2() workload.Layer {
	// The Fig. 9 working example: 3×3 ifmap, 2×2 filter, stride 1, no pad.
	return workload.Layer{Name: "fig9", Kind: workload.Conv,
		H: 3, W: 3, C: 1, R: 2, S: 2, M: 1, Stride: 1}
}

func seqIfmap(c, h, w int) Ifmap {
	m := NewIfmap(c, h, w)
	v := int8(1)
	for ci := 0; ci < c; ci++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				m[ci][y][x] = v
				v++
			}
		}
	}
	return m
}

// The paper's Fig. 9 example: ifmap pixels i1..i9, weights w1..w4. The first
// DAU row (w1 = position (0,0)) must select i1, i2, i4, i5 for the four
// output positions.
func TestFig9WorkingExample(t *testing.T) {
	l := layer2x2()
	u, err := New(l, RowAssignments(l, 0, 4))
	if err != nil {
		t.Fatal(err)
	}
	m := seqIfmap(1, 3, 3) // i1..i9 row-major

	want := map[int][]int8{
		0: {1, 2, 4, 5}, // w1 (0,0)
		1: {2, 3, 5, 6}, // w2 (0,1)
		2: {4, 5, 7, 8}, // w3 (1,0)
		3: {5, 6, 8, 9}, // w4 (1,1)
	}
	for row, w := range want {
		got := u.SelectRow(m, row)
		if len(got) != 4 {
			t.Fatalf("row %d stream length %d, want 4 (=E·F)", row, len(got))
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("row %d stream = %v, want %v", row, got, w)
			}
		}
	}
}

func TestPaddingProducesZeroBubbles(t *testing.T) {
	l := workload.Layer{Name: "pad", Kind: workload.Conv,
		H: 2, W: 2, C: 1, R: 3, S: 3, M: 1, Stride: 1, Pad: 1}
	u, err := New(l, RowAssignments(l, 0, 9))
	if err != nil {
		t.Fatal(err)
	}
	m := seqIfmap(1, 2, 2) // pixels 1..4
	// Row 0 holds weight position (0,0): for output (0,0) it needs ifmap
	// (-1,-1), i.e. padding → bubble.
	s := u.SelectRow(m, 0)
	if s[0] != 0 {
		t.Fatalf("padding position must be a zero bubble, got %d", s[0])
	}
	// Row 4 holds (1,1), the centre: needs exactly the pixel under the
	// output position.
	s4 := u.SelectRow(m, 4)
	want := []int8{1, 2, 3, 4}
	for i := range want {
		if s4[i] != want[i] {
			t.Fatalf("centre row stream = %v, want %v", s4, want)
		}
	}
}

func TestRowAssignmentsUnrolling(t *testing.T) {
	l := workload.Layer{Name: "x", Kind: workload.Conv,
		H: 8, W: 8, C: 3, R: 2, S: 2, M: 4, Stride: 1}
	all := RowAssignments(l, 0, 100)
	if len(all) != 12 { // R·S·C
		t.Fatalf("full unroll = %d rows, want 12", len(all))
	}
	// Channel-major: first four rows are channel 0's 2×2 window.
	if all[0] != (Assignment{0, 0, 0}) || all[3] != (Assignment{1, 1, 0}) || all[4] != (Assignment{0, 0, 1}) {
		t.Fatalf("unroll order wrong: %v", all[:5])
	}
	// Offsets tile the space.
	tile := RowAssignments(l, 10, 8)
	if len(tile) != 2 {
		t.Fatalf("tail tile = %d rows, want 2", len(tile))
	}
	if got := RowAssignments(l, 12, 8); got != nil {
		t.Fatalf("offset beyond the unroll must return nil, got %v", got)
	}
}

func TestNewRejectsOutOfRangeAssignments(t *testing.T) {
	l := layer2x2()
	for _, bad := range []Assignment{{R: 2}, {S: 2}, {C: 1}, {R: -1}} {
		if _, err := New(l, []Assignment{bad}); err == nil {
			t.Errorf("New must reject assignment %+v", bad)
		}
	}
}

func TestStreamsShapeAndDedup(t *testing.T) {
	l := workload.Layer{Name: "d", Kind: workload.Conv,
		H: 6, W: 6, C: 2, R: 3, S: 3, M: 4, Stride: 1, Pad: 1}
	u, err := New(l, RowAssignments(l, 0, 18))
	if err != nil {
		t.Fatal(err)
	}
	m := seqIfmap(2, 6, 6)
	streams := u.Streams(m)
	if len(streams) != 18 {
		t.Fatalf("streams = %d rows, want 18", len(streams))
	}
	ef := l.OutH() * l.OutW()
	total := 0
	for _, s := range streams {
		if len(s) != ef {
			t.Fatalf("stream length %d, want %d", len(s), ef)
		}
		total += len(s)
	}
	// The DAU delivers R·S× more data than the buffer stores — the
	// duplication the unit reconstructs on the fly (Fig. 8).
	stored := l.H * l.W * l.C
	if total <= 4*stored {
		t.Fatalf("DAU must expand stored pixels substantially: %d delivered vs %d stored", total, stored)
	}
}

func TestDelayDFFs(t *testing.T) {
	// Fig. 9: with a 3-stage PE, row r needs r·(3−1) delay DFFs per bit:
	// 0+2+4+6 = 12 for four rows.
	if got := Inventory(4, 1, 3)[sfq.DFFB]; got != 12 {
		t.Fatalf("4 rows, 1 bit, 3 stages: %d delay DFFs, want 12", got)
	}
	if got := Inventory(4, 8, 3)[sfq.DFFB]; got != 96 {
		t.Fatalf("8-bit lanes: %d delay DFFs, want 12 per bit = 96", got)
	}
	if got := Inventory(4, 8, 1)[sfq.DFFB]; got != 0 {
		t.Fatalf("single-stage PE needs no delay cascade, got %d", got)
	}
}

func TestInventoryScalesWithRows(t *testing.T) {
	lib := sfq.NewLibrary(sfq.AIST10(), sfq.RSFQ)
	small := Inventory(8, 8, 15)
	big := Inventory(64, 8, 15)
	if big.JJs(lib) <= small.JJs(lib) {
		t.Fatal("DAU inventory must grow with served rows")
	}
	if small[sfq.DFFB] == 0 {
		t.Fatal("DAU must contain bypassable special DFFs")
	}
	if small[sfq.MUXCell] != 8*8 {
		t.Fatalf("selector cells = %d, want rows×bits = 64", small[sfq.MUXCell])
	}
}

// Property: every value a DAU stream delivers is either a zero bubble or an
// actual ifmap pixel of the assigned channel — selection never crosses
// channels or fabricates data.
func TestSelectionSoundnessProperty(t *testing.T) {
	f := func(h8, c8, seed uint8) bool {
		h := 3 + int(h8)%6
		c := 1 + int(c8)%3
		l := workload.Layer{Name: "p", Kind: workload.Conv,
			H: h, W: h, C: c, R: 3, S: 3, M: 2, Stride: 1, Pad: 1}
		u, err := New(l, RowAssignments(l, 0, l.R*l.S*l.C))
		if err != nil {
			return false
		}
		m := NewIfmap(c, h, h)
		v := int8(seed)
		for ci := 0; ci < c; ci++ {
			for y := 0; y < h; y++ {
				for x := 0; x < h; x++ {
					v += 7
					if v == 0 {
						v = 1
					}
					m[ci][y][x] = v
				}
			}
		}
		for r := 0; r < u.Rows(); r++ {
			a := RowAssignments(l, 0, l.R*l.S*l.C)[r]
			present := map[int8]bool{0: true}
			for y := 0; y < h; y++ {
				for x := 0; x < h; x++ {
					present[m[a.C][y][x]] = true
				}
			}
			for _, got := range u.SelectRow(m, r) {
				if !present[got] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: for stride 1 without padding, interior outputs never receive
// bubbles — every selected pixel is in bounds.
func TestNoPadNoBubblesProperty(t *testing.T) {
	f := func(h8 uint8) bool {
		h := 4 + int(h8)%8
		l := workload.Layer{Name: "p", Kind: workload.Conv,
			H: h, W: h, C: 1, R: 2, S: 2, M: 1, Stride: 1}
		u, err := New(l, RowAssignments(l, 0, 4))
		if err != nil {
			return false
		}
		m := NewIfmap(1, h, h)
		for y := 0; y < h; y++ {
			for x := 0; x < h; x++ {
				m[0][y][x] = 1 // all ones: any bubble would read 0
			}
		}
		for r := 0; r < 4; r++ {
			for _, v := range u.SelectRow(m, r) {
				if v != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
