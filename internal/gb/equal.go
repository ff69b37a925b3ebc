package gb

// Equal reports whether a and b have identical dimensions, sparsity pattern
// and values. Pending updates are materialized on both sides first.
// Explicit zeros are significant: a stored 0 differs from no entry.
func Equal[T Number](a, b *Matrix[T]) bool {
	if a == nil || b == nil {
		return a == b
	}
	a.Wait()
	b.Wait()
	if a.nrows != b.nrows || a.ncols != b.ncols || len(a.col) != len(b.col) {
		return false
	}
	for k := range a.col {
		if a.row[k] != b.row[k] || a.col[k] != b.col[k] || a.val[k] != b.val[k] {
			return false
		}
	}
	return true
}

// VecEqual reports whether two vectors are identical in size, pattern and
// values.
func VecEqual[T Number](a, b *Vector[T]) bool {
	if a == nil || b == nil {
		return a == b
	}
	a.Wait()
	b.Wait()
	if a.n != b.n || len(a.idx) != len(b.idx) {
		return false
	}
	for k := range a.idx {
		if a.idx[k] != b.idx[k] || a.val[k] != b.val[k] {
			return false
		}
	}
	return true
}

// checkInvariants verifies that the stored triples are well formed; used by
// tests.
func (m *Matrix[T]) checkInvariants() error {
	if len(m.row) != len(m.col) || len(m.col) != len(m.val) {
		return errInvariant("row/col/val length")
	}
	if cap(m.row) != cap(m.col) || cap(m.col) != cap(m.val) {
		return errInvariant("row/col/val capacity")
	}
	for k, r := range m.row {
		if r >= m.nrows {
			return errInvariant("row id out of bounds")
		}
		if m.col[k] >= m.ncols {
			return errInvariant("col id out of bounds")
		}
		if k > 0 && (m.row[k-1] > r || m.row[k-1] == r && m.col[k-1] >= m.col[k]) {
			return errInvariant("cells not strictly increasing in (row, col)")
		}
	}
	return nil
}

type errInvariant string

func (e errInvariant) Error() string { return "gb: invariant violated: " + string(e) }
