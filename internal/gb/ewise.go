package gb

import "fmt"

// EWiseAdd returns the set-union element-wise combination of a and b:
// entries present in both are combined with add; entries present in exactly
// one operand are copied. This is GraphBLAS eWiseAdd: a forward merge into
// fresh arrays that leaves both operands intact, where AddAssign and
// Promote merge in place.
func EWiseAdd[T Number](a, b *Matrix[T], add BinaryOp[T]) (*Matrix[T], error) {
	if a.nrows != b.nrows || a.ncols != b.ncols {
		return nil, fmt.Errorf("%w: %dx%d + %dx%d", ErrDimensionMismatch, a.nrows, a.ncols, b.nrows, b.ncols)
	}
	if add == nil {
		return nil, fmt.Errorf("%w: nil add operator", ErrInvalidValue)
	}
	a.Wait()
	b.Wait()
	n := len(a.col) + len(b.col)
	c := &Matrix[T]{
		nrows: a.nrows, ncols: a.ncols, accum: a.accum,
		row: make([]Index, 0, n), col: make([]Index, 0, n), val: make([]T, 0, n),
	}
	i, j := 0, 0
	for i < len(a.col) && j < len(b.col) {
		ar, ac, br, bc := a.row[i], a.col[i], b.row[j], b.col[j]
		switch {
		case ar < br || ar == br && ac < bc:
			c.row, c.col, c.val = append(c.row, ar), append(c.col, ac), append(c.val, a.val[i])
			i++
		case ar > br || bc < ac:
			c.row, c.col, c.val = append(c.row, br), append(c.col, bc), append(c.val, b.val[j])
			j++
		default:
			c.row, c.col, c.val = append(c.row, ar), append(c.col, ac), append(c.val, add(a.val[i], b.val[j]))
			i++
			j++
		}
	}
	c.row = append(append(c.row, a.row[i:]...), b.row[j:]...)
	c.col = append(append(c.col, a.col[i:]...), b.col[j:]...)
	c.val = append(append(c.val, a.val[i:]...), b.val[j:]...)
	return c, nil
}

// AddAssign performs dst ⊕= src in place (dst keeps its accumulator and
// dimensions; src is unchanged). Colliding cells become add(dstVal, srcVal),
// in that order. It merges in dst's own arrays (mergeInPlace), allocating
// only when dst has to grow. dst == src folds every value with itself.
func AddAssign[T Number](dst, src *Matrix[T], add BinaryOp[T]) error {
	if err := checkAddAssign(dst, src, add); err != nil {
		return err
	}
	dst.Wait()
	if dst == src {
		for k, v := range dst.val {
			dst.val[k] = add(v, v)
		}
		return nil
	}
	src.Wait()
	dst.mergeInPlace(src.row, src.col, src.val, add)
	return nil
}

// Promote performs dst ⊕= src and leaves src empty with its buffers
// retained — the cascade's "A(i+1) += A(i); clear A(i)" as one operation.
// An empty dst without room takes src's arrays instead of copying them
// (src keeps dst's), so an entry is never allocated for twice; otherwise the
// merge runs in dst's arrays. src keeps its pending staging, sort scratch
// and stored capacity for the next fill; Trim and Clear let them go.
func Promote[T Number](dst, src *Matrix[T], add BinaryOp[T]) error {
	if dst == src {
		return fmt.Errorf("%w: promoting a matrix into itself", ErrInvalidValue)
	}
	if err := checkAddAssign(dst, src, add); err != nil {
		return err
	}
	dst.Wait()
	src.Wait()
	if len(dst.col) == 0 && cap(dst.col) < len(src.col) {
		dst.row, src.row = src.row, dst.row
		dst.col, src.col = src.col, dst.col
		dst.val, src.val = src.val, dst.val
		dst.front, src.front = src.front, dst.front
	} else {
		dst.mergeInPlace(src.row, src.col, src.val, add)
	}
	src.row, src.col, src.val = src.row[:0], src.col[:0], src.val[:0]
	return nil
}

func checkAddAssign[T Number](dst, src *Matrix[T], add BinaryOp[T]) error {
	if dst.nrows != src.nrows || dst.ncols != src.ncols {
		return fmt.Errorf("%w: %dx%d += %dx%d", ErrDimensionMismatch, dst.nrows, dst.ncols, src.nrows, src.ncols)
	}
	if add == nil {
		return fmt.Errorf("%w: nil add operator", ErrInvalidValue)
	}
	return nil
}

// Sum folds EWiseAdd over all operands with the plus operator, returning the
// materialized total. It implements the paper's query step A = Σ Ai. A nil
// or empty operand list is invalid; single operands are duplicated so the
// caller may mutate the result freely. The result is allocated once, at the
// operands' total size, and every operand merges into it in place — folding
// many operands never regrows it round by round.
func Sum[T Number](ms ...*Matrix[T]) (*Matrix[T], error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("%w: Sum of no matrices", ErrInvalidValue)
	}
	nnz := 0
	for _, m := range ms {
		m.Wait()
		nnz += len(m.col)
	}
	acc := &Matrix[T]{
		nrows: ms[0].nrows, ncols: ms[0].ncols, accum: ms[0].accum,
		row: make([]Index, 0, nnz), col: make([]Index, 0, nnz), val: make([]T, 0, nnz),
	}
	plus := Plus[T]().Op
	for _, m := range ms {
		if err := AddAssign(acc, m, plus); err != nil {
			return nil, err
		}
	}
	return acc, nil
}
