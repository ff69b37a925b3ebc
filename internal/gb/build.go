package gb

import "fmt"

// Build assembles the matrix from tuple lists, combining duplicate (i, j)
// pairs with dup. Following GrB_Matrix_build, the matrix must be empty
// (no stored entries and no pending updates).
func (m *Matrix[T]) Build(rows, cols []Index, vals []T, dup BinaryOp[T]) error {
	if len(m.col) != 0 || len(m.pRow) != 0 {
		return ErrOutputNotEmpty
	}
	if len(rows) != len(cols) || len(rows) != len(vals) {
		return fmt.Errorf("%w: slice lengths %d/%d/%d differ", ErrInvalidValue, len(rows), len(cols), len(vals))
	}
	if dup == nil {
		return fmt.Errorf("%w: nil dup operator", ErrInvalidValue)
	}
	for k := range rows {
		if rows[k] >= m.nrows || cols[k] >= m.ncols {
			return fmt.Errorf("%w: (%d,%d) outside %d x %d", ErrIndexOutOfBounds, rows[k], cols[k], m.nrows, m.ncols)
		}
	}
	// Stage through the pending SoA buffers so Build shares the Wait
	// sort/combine/merge pipeline, just with dup in place of the matrix
	// accumulator.
	m.stageTuples(rows, cols, vals)
	m.materialize(dup)
	return nil
}

// MatrixFromTuples constructs a new matrix from tuple slices with duplicates
// combined by dup. Convenience wrapper over NewMatrix + Build.
func MatrixFromTuples[T Number](nrows, ncols Index, rows, cols []Index, vals []T, dup BinaryOp[T]) (*Matrix[T], error) {
	m, err := NewMatrix[T](nrows, ncols)
	if err != nil {
		return nil, err
	}
	if err := m.Build(rows, cols, vals, dup); err != nil {
		return nil, err
	}
	return m, nil
}
