package gb

import (
	"fmt"
	"slices"
)

// MxM returns C = A ⊕.⊗ B over the semiring s, using a hypersparse
// Gustavson sweep: for each non-empty row i of A, the partial products
// A(i,k) ⊗ B(k,:) are accumulated into a hash workspace keyed by output
// column, then emitted in sorted order.
func MxM[T Number](a, b *Matrix[T], s Semiring[T]) (*Matrix[T], error) {
	if a.ncols != b.nrows {
		return nil, fmt.Errorf("%w: %dx%d * %dx%d", ErrDimensionMismatch, a.nrows, a.ncols, b.nrows, b.ncols)
	}
	if s.Add.Op == nil || s.Mul == nil {
		return nil, fmt.Errorf("%w: incomplete semiring", ErrInvalidValue)
	}
	a.Wait()
	b.Wait()
	c := &Matrix[T]{nrows: a.nrows, ncols: b.ncols, accum: a.accum, ptr: []int{0}}
	if len(a.col) == 0 || len(b.col) == 0 {
		return c, nil
	}

	acc := make(map[Index]T)
	var keys []Index
	for k, i := range a.rows {
		clear(acc)
		keys = keys[:0]
		for p := a.ptr[k]; p < a.ptr[k+1]; p++ {
			kk := a.col[p]
			bi, ok := searchIndex(b.rows, kk)
			if !ok {
				continue
			}
			av := a.val[p]
			for q := b.ptr[bi]; q < b.ptr[bi+1]; q++ {
				j := b.col[q]
				prod := s.Mul(av, b.val[q])
				if cur, seen := acc[j]; seen {
					acc[j] = s.Add.Op(cur, prod)
				} else {
					acc[j] = prod
					keys = append(keys, j)
				}
			}
		}
		if len(keys) == 0 {
			continue
		}
		slices.Sort(keys)
		c.rows = append(c.rows, i)
		for _, j := range keys {
			c.col = append(c.col, j)
			c.val = append(c.val, acc[j])
		}
		c.ptr = append(c.ptr, len(c.col))
	}
	return c, nil
}

// VxM returns y = x ⊕.⊗ A: y(j) = ⊕_i x(i) ⊗ A(i,j).
func VxM[T Number](x *Vector[T], a *Matrix[T], s Semiring[T]) (*Vector[T], error) {
	if x.n != a.nrows {
		return nil, fmt.Errorf("%w: vector(%d) * %dx%d", ErrDimensionMismatch, x.n, a.nrows, a.ncols)
	}
	if s.Add.Op == nil || s.Mul == nil {
		return nil, fmt.Errorf("%w: incomplete semiring", ErrInvalidValue)
	}
	a.Wait()
	x.Wait()
	acc := make(map[Index]T)
	var keys []Index
	for q := range x.idx {
		k, ok := searchIndex(a.rows, x.idx[q])
		if !ok {
			continue
		}
		xv := x.val[q]
		for p := a.ptr[k]; p < a.ptr[k+1]; p++ {
			j := a.col[p]
			prod := s.Mul(xv, a.val[p])
			if cur, seen := acc[j]; seen {
				acc[j] = s.Add.Op(cur, prod)
			} else {
				acc[j] = prod
				keys = append(keys, j)
			}
		}
	}
	slices.Sort(keys)
	y := &Vector[T]{n: a.ncols, accum: Plus[T]().Op}
	for _, j := range keys {
		y.idx = append(y.idx, j)
		y.val = append(y.val, acc[j])
	}
	return y, nil
}
