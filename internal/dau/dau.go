// Package dau implements the data alignment unit of Section III-C (Fig. 9).
//
// In a weight-stationary systolic NPU, adjacent PE-array rows hold adjacent
// weight positions of the same filters, which need largely the *same* ifmap
// pixels (weight sharing). Storing each row's pixels verbatim would waste
// over 90% of the ifmap buffer on duplicates (Fig. 8). The DAU instead lets
// the buffer hold each pixel exactly once per channel and, per PE row,
//
//  1. selects the pixels that row's weight position needs (inserting zero
//     bubbles for padding so the pipeline never stalls), and
//  2. adjusts arrival timing through a cascade of bypassable DFFs so the
//     selected pixel meets the partial sum descending from the row above.
package dau

import (
	"fmt"

	"supernpu/internal/sfq"
	"supernpu/internal/workload"
)

// Ifmap is an input feature map in channel-major [c][h][w] layout, the
// layout of the ifmap buffer rows.
type Ifmap [][][]int8

// NewIfmap allocates a zeroed feature map.
func NewIfmap(c, h, w int) Ifmap {
	m := make(Ifmap, c)
	for i := range m {
		m[i] = make([][]int8, h)
		for j := range m[i] {
			m[i][j] = make([]int8, w)
		}
	}
	return m
}

// Assignment names the weight position (filter row R, filter column S,
// input channel C) mapped onto one PE-array row.
type Assignment struct {
	R, S, C int
}

// RowAssignments unrolls a layer's (channel, filter-row, filter-column)
// weight positions onto consecutive PE rows, starting at flat position
// offset, producing at most rows assignments. This is the weight-mapping
// order of the simulator: channel-major so that a mapping tile covers whole
// filter windows of as few channels as possible.
func RowAssignments(l workload.Layer, offset, rows int) []Assignment {
	total := l.R * l.S * l.C
	if offset >= total {
		return nil
	}
	n := total - offset
	if n > rows {
		n = rows
	}
	out := make([]Assignment, n)
	for i := 0; i < n; i++ {
		flat := offset + i
		c := flat / (l.R * l.S)
		rs := flat % (l.R * l.S)
		out[i] = Assignment{R: rs / l.S, S: rs % l.S, C: c}
	}
	return out
}

// Unit is one data alignment unit instance serving a mapping tile.
type Unit struct {
	layer   workload.Layer
	assigns []Assignment
}

// New builds a DAU for the layer and row assignments. It rejects
// assignments outside the layer's filter extent.
func New(l workload.Layer, assigns []Assignment) (*Unit, error) {
	for i, a := range assigns {
		if a.R < 0 || a.R >= l.R || a.S < 0 || a.S >= l.S || a.C < 0 || a.C >= l.C {
			return nil, fmt.Errorf("dau: row %d assignment %+v outside filter %dx%dx%d",
				i, a, l.R, l.S, l.C)
		}
	}
	return &Unit{layer: l, assigns: assigns}, nil
}

// Rows returns the number of served PE rows.
func (u *Unit) Rows() int { return len(u.assigns) }

// SelectRow returns PE row `row`'s aligned input stream for one input
// image: one value per output position in row-major (e, f) order. Pixels
// the weight position needs are read from the deduplicated ifmap; positions
// that fall into padding become zero bubbles (filtered after computation by
// a valid bit, Fig. 9 ②).
func (u *Unit) SelectRow(m Ifmap, row int) []int8 {
	a := u.assigns[row]
	l := u.layer
	e, f := l.OutH(), l.OutW()
	out := make([]int8, 0, e*f)
	for oe := 0; oe < e; oe++ {
		ih := oe*l.Stride - l.Pad + a.R
		for of := 0; of < f; of++ {
			iw := of*l.Stride - l.Pad + a.S
			if ih < 0 || ih >= l.H || iw < 0 || iw >= l.W {
				out = append(out, 0)
				continue
			}
			out = append(out, m[a.C][ih][iw])
		}
	}
	return out
}

// Streams returns all rows' aligned streams for one input image. Every
// stream has the same length (E·F), so the downstream systolic array never
// stalls; the per-row timing skew is applied by the array model itself,
// mirroring the DAU's cascaded DFFs.
func (u *Unit) Streams(m Ifmap) [][]int8 {
	out := make([][]int8, len(u.assigns))
	for r := range u.assigns {
		out[r] = u.SelectRow(m, r)
	}
	return out
}

// Inventory returns the DAU's cell multiset for `rows` PE rows with
// bits-wide data, serving a PE with peStages pipeline stages: per row a
// controller (index counters and comparators), a selector, the bypassable
// DFF cascade, and the splitter tree that broadcasts each ifmap buffer row
// to all DAU rows (Fig. 9 ①).
func Inventory(rows, bits, peStages int) sfq.Inventory {
	inv := sfq.Inventory{}
	// Controller per row: ifmap/weight index counters and bound
	// comparators built from ~24 AND/XOR/NOT bit-slices.
	inv.AddGate(sfq.AND, rows*24)
	inv.AddGate(sfq.XOR, rows*24)
	inv.AddGate(sfq.NOT, rows*8)
	inv.AddGate(sfq.DFF, rows*48) // counter state
	// Selector: one steering cell per bit per row.
	inv.AddGate(sfq.MUXCell, rows*bits)
	// Bypassable delay cascade: row r must delay its stream by
	// r·(stages−1) cycles so its pixel meets the partial sum computed by
	// the rows above (Fig. 9 timing adjustment; the paper's 8-bit PE has
	// 15 pipeline stages), so it holds that many special DFFs per bit.
	cascade := 0
	for r := 0; r < rows; r++ {
		cascade += r * (peStages - 1)
	}
	inv.AddGate(sfq.DFFB, cascade*bits)
	// Broadcast splitter tree from the ifmap buffer rows into the DAU
	// rows, with transmission-line wiring per row crossing.
	inv.AddGate(sfq.Splitter, rows*rows/2*bits/8)
	inv.AddGate(sfq.JTL, rows*4*bits)
	return inv
}
