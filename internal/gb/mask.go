package gb

import "fmt"

// Mask is a structural mask over a matrix pattern: a masked operation may
// only produce entries at positions present in the mask. Values in the mask
// matrix are ignored — only the pattern matters, matching GraphBLAS
// structural masks.
type Mask[T Number] struct {
	pattern *Matrix[T]
}

// StructuralMask returns a mask selecting the positions where m has
// entries.
func StructuralMask[T Number](m *Matrix[T]) Mask[T] {
	return Mask[T]{pattern: m}
}

// rowPattern returns the sorted column ids of the mask's row i (nil if the
// row is empty).
func (k Mask[T]) rowPattern(i Index) []Index {
	r, ok := searchIndex(k.pattern.rows, i)
	if !ok {
		return nil
	}
	return k.pattern.col[k.pattern.ptr[r]:k.pattern.ptr[r+1]]
}

// MxMMasked computes C<mask> = A ⊕.⊗ B: only output positions admitted by
// the mask are computed and stored. This prunes the Gustavson accumulation
// to the mask's row patterns — the "masked multiply" at the heart of
// GraphBLAS triangle counting, where it turns an O(n^3)-flavored product
// into work proportional to the mask's nnz.
func MxMMasked[T Number](a, b *Matrix[T], s Semiring[T], mask Mask[T]) (*Matrix[T], error) {
	if mask.pattern == nil {
		return nil, fmt.Errorf("%w: nil mask pattern", ErrInvalidValue)
	}
	if a.ncols != b.nrows {
		return nil, fmt.Errorf("%w: %dx%d * %dx%d", ErrDimensionMismatch, a.nrows, a.ncols, b.nrows, b.ncols)
	}
	if mask.pattern.nrows != a.nrows || mask.pattern.ncols != b.ncols {
		return nil, fmt.Errorf("%w: mask %dx%d over %dx%d product", ErrDimensionMismatch,
			mask.pattern.nrows, mask.pattern.ncols, a.nrows, b.ncols)
	}
	if s.Add.Op == nil || s.Mul == nil {
		return nil, fmt.Errorf("%w: incomplete semiring", ErrInvalidValue)
	}
	a.Wait()
	b.Wait()
	mask.pattern.Wait()

	c := &Matrix[T]{nrows: a.nrows, ncols: b.ncols, accum: a.accum, ptr: []int{0}}
	if len(a.col) == 0 || len(b.col) == 0 {
		return c, nil
	}

	acc := make(map[Index]T)
	for k, i := range a.rows {
		allowed := mask.rowPattern(i)
		if len(allowed) == 0 {
			continue
		}
		clear(acc)
		for p := a.ptr[k]; p < a.ptr[k+1]; p++ {
			kk := a.col[p]
			bi, ok := searchIndex(b.rows, kk)
			if !ok {
				continue
			}
			av := a.val[p]
			for q := b.ptr[bi]; q < b.ptr[bi+1]; q++ {
				j := b.col[q]
				// Prune to the mask's row pattern.
				if _, ok := searchIndex(allowed, j); !ok {
					continue
				}
				prod := s.Mul(av, b.val[q])
				if cur, seen := acc[j]; seen {
					acc[j] = s.Add.Op(cur, prod)
				} else {
					acc[j] = prod
				}
			}
		}
		if len(acc) == 0 {
			continue
		}
		before := len(c.col)
		for _, j := range allowed { // allowed is sorted: emit in order
			if v, ok := acc[j]; ok {
				c.col = append(c.col, j)
				c.val = append(c.val, v)
			}
		}
		if len(c.col) > before {
			c.rows = append(c.rows, i)
			c.ptr = append(c.ptr, len(c.col))
		}
	}
	return c, nil
}
