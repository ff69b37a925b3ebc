package gb

import "fmt"

// Matrix is a hypersparse matrix of T values, stored row-oriented in DCSR
// form. The zero value is not usable; construct with NewMatrix.
//
// Matrices operate in "non-blocking mode": SetElement and AppendTuples stage
// updates in a pending-tuple buffer, and any operation that needs the
// materialized structure calls Wait first. Pending duplicates (and pending
// entries colliding with stored entries) are combined with the matrix
// accumulator, which defaults to addition — the semantics the hierarchical
// cascade requires.
type Matrix[T Number] struct {
	nrows Index
	ncols Index

	// DCSR storage. rows holds the sorted ids of non-empty rows;
	// col[ptr[k]:ptr[k+1]] and val[ptr[k]:ptr[k+1]] hold the sorted column
	// ids and values of row rows[k]. len(ptr) == len(rows)+1.
	rows []Index
	ptr  []int
	col  []Index
	val  []T

	// rowsBase and ptrBase are rows' and ptr's whole backing arrays while
	// a merge has started rows and ptr part way into them (slide); nil
	// otherwise. Whatever gives rows and ptr other arrays clears them.
	rowsBase []Index
	ptrBase  []int

	// Pending updates not yet merged into the DCSR arrays, in
	// struct-of-arrays layout: entry k is (pRow[k], pCol[k], pVal[k]).
	// SoA keeps the Wait sort/merge loop cache-friendly (the radix passes
	// touch only the packed keys, never the values' padding) and lets the
	// staging append copy each incoming batch with three memmoves instead
	// of a per-entry struct assignment. The three slices grow in lockstep;
	// Wait truncates them to length zero, retaining capacity, so a matrix
	// in steady state stages updates without allocating.
	pRow []Index
	pCol []Index
	pVal []T

	// scratch holds the radix-sort ping-pong buffers, retained across
	// Waits so sorting is allocation-free once warm.
	scratch sortScratch[T]

	accum BinaryOp[T]
}

// sortScratch is the retained workspace for materializing pending updates:
// packed 64-bit keys and the value payloads, double-buffered for the LSD
// radix passes of sortPending.
type sortScratch[T Number] struct {
	keyA, keyB []uint64
	valA, valB []T
	// ptr holds the row pointers of the sorted pending entries while they
	// are merged into the DCSR arrays (pendingDCSR).
	ptr []int
}

// NewMatrix returns an empty nrows x ncols matrix with the default plus
// accumulator for pending updates. Dimensions must be nonzero.
func NewMatrix[T Number](nrows, ncols Index) (*Matrix[T], error) {
	if nrows == 0 || ncols == 0 {
		return nil, fmt.Errorf("%w: dimensions must be nonzero (got %d x %d)", ErrInvalidValue, nrows, ncols)
	}
	return &Matrix[T]{nrows: nrows, ncols: ncols, accum: Plus[T]().Op, ptr: []int{0}}, nil
}

// MustNewMatrix is NewMatrix for statically valid dimensions; it panics on
// error and exists for tests and examples.
func MustNewMatrix[T Number](nrows, ncols Index) *Matrix[T] {
	m, err := NewMatrix[T](nrows, ncols)
	if err != nil {
		panic(err)
	}
	return m
}

// NRows returns the number of rows of the matrix's index space.
func (m *Matrix[T]) NRows() Index { return m.nrows }

// NCols returns the number of columns of the matrix's index space.
func (m *Matrix[T]) NCols() Index { return m.ncols }

// NVals returns the number of stored entries, materializing pending updates
// first (like GrB_Matrix_nvals, it forces completion).
func (m *Matrix[T]) NVals() int {
	m.Wait()
	return len(m.col)
}

// PendingLen reports how many staged (not yet materialized) updates exist.
// Together with the materialized entry count it bounds NVals from above;
// the hierarchical cascade uses this to decide when a Wait is worthwhile.
func (m *Matrix[T]) PendingLen() int { return len(m.pRow) }

// MaterializedNVals returns the number of entries in the DCSR structure,
// ignoring pending updates. NVals() <= MaterializedNVals()+PendingLen().
func (m *Matrix[T]) MaterializedNVals() int { return len(m.col) }

// SetElement stages the update A(i,j) ⊕= v (⊕ is the matrix accumulator).
func (m *Matrix[T]) SetElement(i, j Index, v T) error {
	if i >= m.nrows || j >= m.ncols {
		return fmt.Errorf("%w: (%d,%d) outside %d x %d", ErrIndexOutOfBounds, i, j, m.nrows, m.ncols)
	}
	if cap(m.pRow)-len(m.pRow) < 1 {
		m.growPending(1)
	}
	m.pRow = append(m.pRow, i)
	m.pCol = append(m.pCol, j)
	m.pVal = append(m.pVal, v)
	return nil
}

// AppendTuples stages a batch of updates. It is the bulk equivalent of
// calling SetElement for each (rows[k], cols[k], vals[k]) and is the fast
// path used by streaming ingest. The three slices must have equal length.
func (m *Matrix[T]) AppendTuples(rows, cols []Index, vals []T) error {
	if len(rows) != len(cols) || len(rows) != len(vals) {
		return fmt.Errorf("%w: slice lengths %d/%d/%d differ", ErrInvalidValue, len(rows), len(cols), len(vals))
	}
	for k := range rows {
		if rows[k] >= m.nrows || cols[k] >= m.ncols {
			return fmt.Errorf("%w: (%d,%d) outside %d x %d", ErrIndexOutOfBounds, rows[k], cols[k], m.nrows, m.ncols)
		}
	}
	m.stageTuples(rows, cols, vals)
	return nil
}

// stageTuples copies a validated batch into the pending SoA buffers.
// Growth is delegated to growPending so the steady-state path (capacity
// already warm) stays free of allocation sites.
//
//hhgb:noalloc
func (m *Matrix[T]) stageTuples(rows, cols []Index, vals []T) {
	if cap(m.pRow)-len(m.pRow) < len(rows) {
		m.growPending(len(rows))
	}
	m.pRow = append(m.pRow, rows...)
	m.pCol = append(m.pCol, cols...)
	m.pVal = append(m.pVal, vals...)
}

// growPending reserves room for n more pending entries, at least doubling
// so repeated staging amortizes to O(1) copies per entry. The three SoA
// slices grow together, keeping their capacities in lockstep.
func (m *Matrix[T]) growPending(n int) {
	want := len(m.pRow) + n
	m.pRow = reserve(m.pRow, want)
	m.pCol = reserve(m.pCol, want)
	m.pVal = reserve(m.pVal, want)
}

// ExtractElement returns the stored value at (i, j). It forces completion of
// pending updates. The error is ErrNoValue when no entry exists.
func (m *Matrix[T]) ExtractElement(i, j Index) (T, error) {
	var zero T
	if i >= m.nrows || j >= m.ncols {
		return zero, fmt.Errorf("%w: (%d,%d) outside %d x %d", ErrIndexOutOfBounds, i, j, m.nrows, m.ncols)
	}
	m.Wait()
	k, ok := searchIndex(m.rows, i)
	if !ok {
		return zero, ErrNoValue
	}
	lo, hi := m.ptr[k], m.ptr[k+1]
	p, ok := searchIndex(m.col[lo:hi], j)
	if !ok {
		return zero, ErrNoValue
	}
	return m.val[lo+p], nil
}

// Clear removes all entries (stored and pending), keeping dimensions and
// accumulator. Storage is released so a cleared level really returns its
// memory, which is the point of the hierarchical cascade.
func (m *Matrix[T]) Clear() {
	m.rows = nil
	m.ptr = []int{0}
	m.rowsBase, m.ptrBase = nil, nil
	m.col = nil
	m.val = nil
	m.pRow = nil
	m.pCol = nil
	m.pVal = nil
	m.scratch = sortScratch[T]{}
}

// Trim completes pending work and releases what only further ingest would
// use: the pending buffers, the sort scratch, and any DCSR capacity beyond
// 1/8 of the stored length (the slack amortised growth leaves behind, and
// the front of the row arrays a merge slid past). An
// empty matrix ends up holding nothing. A matrix retains its buffers for as
// long as it can still ingest; Trim is for the moment it no longer will.
func (m *Matrix[T]) Trim() {
	m.Wait()
	m.pRow, m.pCol, m.pVal = nil, nil, nil
	m.scratch = sortScratch[T]{}
	if m.rowsBase != nil {
		m.unslide()
	}
	m.rows = trimmed(m.rows)
	m.ptr = trimmed(m.ptr)
	m.col = trimmed(m.col)
	m.val = trimmed(m.val)
}

// trimmed returns s, reallocated to its exact length when its spare
// capacity exceeds 1/8 of that length.
func trimmed[E any](s []E) []E {
	if cap(s)-len(s) <= len(s)/8 {
		return s
	}
	exact := make([]E, len(s))
	copy(exact, s)
	return exact
}

// Capacity reports, in entries, the room the matrix holds: stored is the
// capacity of the DCSR cell arrays (>= MaterializedNVals), staging that of
// the pending buffers plus the sort scratch. Both are zero after Clear, and
// after Trim on an empty matrix.
func (m *Matrix[T]) Capacity() (stored, staging int) {
	return cap(m.col), cap(m.pRow) + cap(m.scratch.keyA)
}

// Dup returns a deep copy. Pending updates are materialized first so the
// copy shares no state with the original.
func (m *Matrix[T]) Dup() *Matrix[T] {
	m.Wait()
	d := &Matrix[T]{nrows: m.nrows, ncols: m.ncols, accum: m.accum}
	d.rows = append([]Index(nil), m.rows...)
	d.ptr = append([]int(nil), m.ptr...)
	d.col = append([]Index(nil), m.col...)
	d.val = append([]T(nil), m.val...)
	return d
}

// Iterate calls f for each stored entry in row-major order, stopping early
// if f returns false. Pending updates are materialized first.
func (m *Matrix[T]) Iterate(f func(i, j Index, v T) bool) {
	m.Wait()
	for k, r := range m.rows {
		for p := m.ptr[k]; p < m.ptr[k+1]; p++ {
			if !f(r, m.col[p], m.val[p]) {
				return
			}
		}
	}
}

// ExtractTuples returns all stored entries in row-major order. It forces
// completion of pending updates. The returned slices are fresh copies.
func (m *Matrix[T]) ExtractTuples() (rows, cols []Index, vals []T) {
	m.Wait()
	n := len(m.col)
	rows = make([]Index, 0, n)
	cols = append([]Index(nil), m.col...)
	vals = append([]T(nil), m.val...)
	for k, r := range m.rows {
		for p := m.ptr[k]; p < m.ptr[k+1]; p++ {
			_ = p
			rows = append(rows, r)
		}
	}
	return rows, cols, vals
}

// String summarizes the matrix without dumping entries.
func (m *Matrix[T]) String() string {
	return fmt.Sprintf("gb.Matrix[%dx%d, nvals=%d(+%d pending), nnzrows=%d]",
		m.nrows, m.ncols, len(m.col), len(m.pRow), len(m.rows))
}

// searchIndex binary-searches a sorted Index slice and reports the position
// and whether x was found.
func searchIndex(s []Index, x Index) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo] == x
}
