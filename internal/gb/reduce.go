package gb

import "fmt"

// ReduceScalar folds all stored values of a with the monoid, returning the
// monoid identity for an empty matrix.
func ReduceScalar[T Number](a *Matrix[T], m Monoid[T]) (T, error) {
	if m.Op == nil {
		var zero T
		return zero, fmt.Errorf("%w: monoid with nil operator", ErrInvalidValue)
	}
	a.Wait()
	acc := m.Identity
	for _, v := range a.val {
		acc = m.Op(acc, v)
	}
	return acc, nil
}

// ReduceRows reduces each row of a to a single value with the monoid,
// producing a hypersparse vector with one entry per non-empty row.
// For the plus monoid on a traffic matrix this is the out-degree /
// out-traffic vector.
func ReduceRows[T Number](a *Matrix[T], m Monoid[T]) (*Vector[T], error) {
	if m.Op == nil {
		return nil, fmt.Errorf("%w: monoid with nil operator", ErrInvalidValue)
	}
	a.Wait()
	v, err := NewVector[T](a.nrows)
	if err != nil {
		return nil, err
	}
	v.idx = make([]Index, 0, len(a.rows))
	v.val = make([]T, 0, len(a.rows))
	for k, r := range a.rows {
		acc := m.Identity
		for p := a.ptr[k]; p < a.ptr[k+1]; p++ {
			acc = m.Op(acc, a.val[p])
		}
		v.idx = append(v.idx, r)
		v.val = append(v.val, acc)
	}
	return v, nil
}

// ReduceCols reduces each column of a with the monoid, producing a
// hypersparse vector with one entry per non-empty column (the in-degree /
// in-traffic vector for plus on a traffic matrix). Cells are sorted by
// column with the stable radix kernel Wait uses, so each column's values
// fold in row-major order whatever the operator.
func ReduceCols[T Number](a *Matrix[T], m Monoid[T]) (*Vector[T], error) {
	if m.Op == nil {
		return nil, fmt.Errorf("%w: monoid with nil operator", ErrInvalidValue)
	}
	a.Wait()
	cols, vals := sortedByKey(a.col, a.val)
	v, err := newRunVector[T](a.ncols, cols)
	if err != nil {
		return nil, err
	}
	w := -1
	for k, c := range cols {
		if w < 0 || c != v.idx[w] {
			w++
			v.idx[w], v.val[w] = c, vals[k]
		} else {
			v.val[w] = m.Op(v.val[w], vals[k])
		}
	}
	return v, nil
}

// RowDegrees returns, per non-empty row, the number of cells stored in it.
// It reads the DCSR row pointers alone — no value is touched or copied.
func RowDegrees[T Number](a *Matrix[T]) (*Vector[T], error) {
	a.Wait()
	v, err := NewVector[T](a.nrows)
	if err != nil {
		return nil, err
	}
	v.idx = append(make([]Index, 0, len(a.rows)), a.rows...)
	v.val = make([]T, len(a.rows))
	for k := range a.rows {
		v.val[k] = T(a.ptr[k+1] - a.ptr[k])
	}
	return v, nil
}

// ColDegrees returns, per non-empty column, the number of cells stored in
// it: the run lengths of the sorted column ids (sorted alone — the values
// that ride along are zero-width).
func ColDegrees[T Number](a *Matrix[T]) (*Vector[T], error) {
	a.Wait()
	cols, _ := sortedByKey(a.col, make([]struct{}, len(a.col)))
	v, err := newRunVector[T](a.ncols, cols)
	if err != nil {
		return nil, err
	}
	w := -1
	for _, c := range cols {
		if w < 0 || c != v.idx[w] {
			w++
			v.idx[w] = c
		}
		v.val[w]++
	}
	return v, nil
}

// sortedByKey returns copies of keys and vals sorted by key with the
// kernels Wait sorts pending entries with: stable, so entries with equal
// keys keep their order. Keys are full-width; the radix passes skip the
// bytes all of them share.
func sortedByKey[V any](keys []Index, vals []V) ([]Index, []V) {
	n := len(keys)
	ks, vs := make([]Index, n), make([]V, n)
	copy(ks, keys)
	copy(vs, vals)
	if n < 128 {
		insertionSortPacked(ks, vs)
		return ks, vs
	}
	andKey, orKey := ^Index(0), Index(0)
	for _, k := range ks {
		andKey &= k
		orKey |= k
	}
	return radixSortPacked(ks, make([]Index, n), vs, make([]V, n), andKey, orKey)
}

// newRunVector returns a vector of size n with zeroed room for exactly one
// entry per run of equal keys in the sorted slice.
func newRunVector[T Number](n Index, sorted []Index) (*Vector[T], error) {
	v, err := NewVector[T](n)
	if err != nil {
		return nil, err
	}
	runs := 0
	for k, c := range sorted {
		if k == 0 || c != sorted[k-1] {
			runs++
		}
	}
	v.idx, v.val = make([]Index, runs), make([]T, runs)
	return v, nil
}
