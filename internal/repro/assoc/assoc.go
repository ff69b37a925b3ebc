// Package assoc implements D4M-style associative arrays: sparse matrices
// whose rows and columns are addressed by sorted string keys, backed by the
// hypersparse kernel in internal/gb.
//
// Associative arrays are the representation the paper's prior work
// ("Streaming 1.9 Billion Hypersparse Network Updates Per Second with D4M",
// HPEC 2019) used for traffic matrices. Every algebraic step must maintain
// the sorted key lists and remap indices, which is exactly why integer-keyed
// GraphBLAS matrices are faster — the gap visible between the two
// hierarchical curves in the paper's Fig. 2. This package reproduces that
// baseline faithfully enough to measure it.
package assoc

import (
	"fmt"
	"sort"

	"hhgb/internal/gb"
)

// Assoc is an associative array: string row/column keys over float64
// values. The zero value is the empty array and is ready to use.
// Assoc values are immutable once constructed; algebra returns new arrays.
type Assoc struct {
	rows []string // sorted, unique
	cols []string // sorted, unique
	mat  *gb.Matrix[float64]
}

// New returns the empty associative array.
func New() *Assoc { return &Assoc{} }

// FromTriples constructs an associative array from parallel triple slices;
// duplicate (row, col) pairs have their values summed (the D4M default).
func FromTriples(rows, cols []string, vals []float64) (*Assoc, error) {
	if len(rows) != len(cols) || len(rows) != len(vals) {
		return nil, fmt.Errorf("%w: triple lengths %d/%d/%d differ", gb.ErrInvalidValue, len(rows), len(cols), len(vals))
	}
	if len(rows) == 0 {
		return New(), nil
	}
	rk := sortedUnique(rows)
	ck := sortedUnique(cols)
	m, err := gb.NewMatrix[float64](gb.Index(uint64(len(rk))), gb.Index(uint64(len(ck))))
	if err != nil {
		return nil, err
	}
	ri := make([]gb.Index, len(rows))
	ci := make([]gb.Index, len(cols))
	for k := range rows {
		ri[k] = gb.Index(uint64(sort.SearchStrings(rk, rows[k])))
		ci[k] = gb.Index(uint64(sort.SearchStrings(ck, cols[k])))
	}
	if err := m.Build(ri, ci, vals, gb.Plus[float64]().Op); err != nil {
		return nil, err
	}
	return &Assoc{rows: rk, cols: ck, mat: m}, nil
}

// sortedUnique returns the sorted set of the input strings.
func sortedUnique(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	w := 0
	for r := 1; r < len(out); r++ {
		if out[r] != out[w] {
			w++
			out[w] = out[r]
		}
	}
	return out[:w+1]
}

// NNZ returns the number of stored entries.
func (a *Assoc) NNZ() int {
	if a.mat == nil {
		return 0
	}
	return a.mat.NVals()
}

// RowKeys returns a copy of the sorted row key list.
func (a *Assoc) RowKeys() []string { return append([]string(nil), a.rows...) }

// Value returns the value at (row, col) and whether an entry exists. Only
// tests call it: it is their single-cell read against brute-force maps.
func (a *Assoc) Value(row, col string) (float64, bool) {
	if a.mat == nil {
		return 0, false
	}
	ri := sort.SearchStrings(a.rows, row)
	if ri == len(a.rows) || a.rows[ri] != row {
		return 0, false
	}
	ci := sort.SearchStrings(a.cols, col)
	if ci == len(a.cols) || a.cols[ci] != col {
		return 0, false
	}
	v, err := a.mat.ExtractElement(gb.Index(uint64(ri)), gb.Index(uint64(ci)))
	if err != nil {
		return 0, false
	}
	return v, true
}

// Triples returns all entries as parallel key/key/value slices in
// row-major key order.
func (a *Assoc) Triples() (rows, cols []string, vals []float64) {
	if a.mat == nil {
		return nil, nil, nil
	}
	ri, ci, vv := a.mat.ExtractTuples()
	rows = make([]string, len(ri))
	cols = make([]string, len(ci))
	for k := range ri {
		rows[k] = a.rows[ri[k]]
		cols[k] = a.cols[ci[k]]
	}
	return rows, cols, vv
}

// Add returns the associative-array sum a + b: keys are unioned, values on
// colliding (row, col) keys are added. This is the D4M "+" the hierarchical
// D4M cascade is built from; note the full key-remap cost it pays.
func Add(a, b *Assoc) (*Assoc, error) {
	if a.mat == nil {
		return b.copy(), nil
	}
	if b.mat == nil {
		return a.copy(), nil
	}
	rows := mergeKeys(a.rows, b.rows)
	cols := mergeKeys(a.cols, b.cols)
	am, err := remap(a, rows, cols)
	if err != nil {
		return nil, err
	}
	bm, err := remap(b, rows, cols)
	if err != nil {
		return nil, err
	}
	sum, err := gb.EWiseAdd(am, bm, gb.Plus[float64]().Op)
	if err != nil {
		return nil, err
	}
	return &Assoc{rows: rows, cols: cols, mat: sum}, nil
}

// copy returns a deep copy.
func (a *Assoc) copy() *Assoc {
	c := &Assoc{rows: append([]string(nil), a.rows...), cols: append([]string(nil), a.cols...)}
	if a.mat != nil {
		c.mat = a.mat.Dup()
	}
	return c
}

// mergeKeys unions two sorted unique key lists.
func mergeKeys(x, y []string) []string {
	out := make([]string, 0, len(x)+len(y))
	i, j := 0, 0
	for i < len(x) || j < len(y) {
		switch {
		case j >= len(y) || (i < len(x) && x[i] < y[j]):
			out = append(out, x[i])
			i++
		case i >= len(x) || y[j] < x[i]:
			out = append(out, y[j])
			j++
		default:
			out = append(out, x[i])
			i++
			j++
		}
	}
	return out
}

// remap rebuilds a's matrix in the index space of the given key lists
// (which must contain all of a's keys).
func remap(a *Assoc, rows, cols []string) (*gb.Matrix[float64], error) {
	rowMap := make([]gb.Index, len(a.rows))
	for k, key := range a.rows {
		rowMap[k] = gb.Index(uint64(sort.SearchStrings(rows, key)))
	}
	colMap := make([]gb.Index, len(a.cols))
	for k, key := range a.cols {
		colMap[k] = gb.Index(uint64(sort.SearchStrings(cols, key)))
	}
	ri, ci, vv := a.mat.ExtractTuples()
	for k := range ri {
		ri[k] = rowMap[ri[k]]
		ci[k] = colMap[ci[k]]
	}
	return gb.MatrixFromTuples(gb.Index(uint64(len(rows))), gb.Index(uint64(len(cols))), ri, ci, vv, gb.Plus[float64]().Op)
}

// Total returns the sum of all values.
func (a *Assoc) Total() (float64, error) {
	if a.mat == nil {
		return 0, nil
	}
	return gb.ReduceScalar(a.mat, gb.Plus[float64]())
}

// Equal reports whether two associative arrays hold identical keys and
// entries.
func Equal(a, b *Assoc) bool {
	if a.NNZ() != b.NNZ() {
		return false
	}
	ar, ac, av := a.Triples()
	br, bc, bv := b.Triples()
	for k := range ar {
		if ar[k] != br[k] || ac[k] != bc[k] || av[k] != bv[k] {
			return false
		}
	}
	return true
}

// String summarizes the array.
func (a *Assoc) String() string {
	return fmt.Sprintf("assoc.Assoc[%d rows x %d cols, nnz=%d]", len(a.rows), len(a.cols), a.NNZ())
}
