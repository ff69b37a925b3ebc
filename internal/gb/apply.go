package gb

import "fmt"

// Apply returns a new matrix with f applied to every stored value. The
// sparsity pattern is unchanged (explicit zeros produced by f are kept,
// per GraphBLAS semantics).
func Apply[T Number](a *Matrix[T], f UnaryOp[T]) (*Matrix[T], error) {
	if f == nil {
		return nil, fmt.Errorf("%w: nil unary operator", ErrInvalidValue)
	}
	c := a.Dup()
	for k := range c.val {
		c.val[k] = f(c.val[k])
	}
	return c, nil
}

// Scale returns s .* A (every stored value multiplied by s); a common
// special case of Apply used by decaying background models.
func Scale[T Number](a *Matrix[T], s T) (*Matrix[T], error) {
	return Apply(a, func(v T) T { return s * v })
}

// Select returns the entries of a for which pred(i, j, v) is true; the
// GraphBLAS GrB_select analogue with a Go predicate.
func Select[T Number](a *Matrix[T], pred IndexPredicate[T]) (*Matrix[T], error) {
	if pred == nil {
		return nil, fmt.Errorf("%w: nil predicate", ErrInvalidValue)
	}
	a.Wait()
	c := &Matrix[T]{nrows: a.nrows, ncols: a.ncols, accum: a.accum, ptr: []int{0}}
	for k, r := range a.rows {
		before := len(c.col)
		for p := a.ptr[k]; p < a.ptr[k+1]; p++ {
			if pred(r, a.col[p], a.val[p]) {
				c.col = append(c.col, a.col[p])
				c.val = append(c.val, a.val[p])
			}
		}
		if len(c.col) > before {
			c.rows = append(c.rows, r)
			c.ptr = append(c.ptr, len(c.col))
		}
	}
	return c, nil
}

// Tril returns the entries on or below the diagonal shifted by k
// (j <= i + k), matching GxB_TRIL.
func Tril[T Number](a *Matrix[T], k int64) (*Matrix[T], error) {
	return Select(a, func(i, j Index, _ T) bool {
		return int64(j)-int64(i) <= k
	})
}
