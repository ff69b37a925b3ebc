package gb

import "fmt"

// EWiseAdd returns the set-union element-wise combination of a and b:
// entries present in both are combined with add; entries present in exactly
// one operand are copied. This is GraphBLAS eWiseAdd and the single
// operation the hierarchical cascade is built from.
func EWiseAdd[T Number](a, b *Matrix[T], add BinaryOp[T]) (*Matrix[T], error) {
	if a.nrows != b.nrows || a.ncols != b.ncols {
		return nil, fmt.Errorf("%w: %dx%d + %dx%d", ErrDimensionMismatch, a.nrows, a.ncols, b.nrows, b.ncols)
	}
	if add == nil {
		return nil, fmt.Errorf("%w: nil add operator", ErrInvalidValue)
	}
	a.Wait()
	b.Wait()
	c := &Matrix[T]{nrows: a.nrows, ncols: a.ncols, accum: a.accum}
	c.rows, c.ptr, c.col, c.val = mergeDCSR(a.rows, a.ptr, a.col, a.val, b.rows, b.ptr, b.col, b.val, add)
	return c, nil
}

// mergeDCSR union-merges two DCSR structures, combining colliding entries
// with op (left operand from the a side), into fresh arrays. It is
// EWiseAdd's kernel — both operands stay intact — and the reference the
// tests hold the in-place kernel (mergeInPlace) to.
func mergeDCSR[T Number](
	ar []Index, ap []int, ac []Index, av []T,
	br []Index, bp []int, bc []Index, bv []T,
	op BinaryOp[T],
) (rows []Index, ptr []int, col []Index, val []T) {
	rows = make([]Index, 0, len(ar)+len(br))
	ptr = make([]int, 1, len(ar)+len(br)+1)
	col = make([]Index, 0, len(ac)+len(bc))
	val = make([]T, 0, len(av)+len(bv))

	i, j := 0, 0
	for i < len(ar) || j < len(br) {
		switch {
		case j >= len(br) || (i < len(ar) && ar[i] < br[j]):
			rows = append(rows, ar[i])
			col = append(col, ac[ap[i]:ap[i+1]]...)
			val = append(val, av[ap[i]:ap[i+1]]...)
			i++
		case i >= len(ar) || br[j] < ar[i]:
			rows = append(rows, br[j])
			col = append(col, bc[bp[j]:bp[j+1]]...)
			val = append(val, bv[bp[j]:bp[j+1]]...)
			j++
		default: // same row id: merge the two sorted column runs
			rows = append(rows, ar[i])
			x, xe := ap[i], ap[i+1]
			y, ye := bp[j], bp[j+1]
			for x < xe || y < ye {
				switch {
				case y >= ye || (x < xe && ac[x] < bc[y]):
					col = append(col, ac[x])
					val = append(val, av[x])
					x++
				case x >= xe || bc[y] < ac[x]:
					col = append(col, bc[y])
					val = append(val, bv[y])
					y++
				default:
					col = append(col, ac[x])
					val = append(val, op(av[x], bv[y]))
					x++
					y++
				}
			}
			i++
			j++
		}
		ptr = append(ptr, len(col))
	}
	if len(rows) == 0 {
		ptr = []int{0}
	}
	return rows, ptr, col, val
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
	dst.mergeInPlace(src.rows, src.ptr, src.col, src.val, add)
	return nil
}

// Promote performs dst ⊕= src and leaves src empty with its buffers
// retained — the cascade's "A(i+1) += A(i); clear A(i)" as one operation.
// An empty dst without room takes src's arrays instead of copying them
// (src keeps dst's), so an entry is never allocated for twice; otherwise the
// merge runs in dst's arrays. src keeps its pending staging, sort scratch
// and DCSR capacity for the next fill; Trim and Clear let them go.
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
		dst.rows, src.rows = src.rows, dst.rows
		dst.ptr, src.ptr = src.ptr, dst.ptr
		dst.rowsBase, src.rowsBase = src.rowsBase, dst.rowsBase
		dst.ptrBase, src.ptrBase = src.ptrBase, dst.ptrBase
		dst.col, src.col = src.col, dst.col
		dst.val, src.val = src.val, dst.val
	} else {
		dst.mergeInPlace(src.rows, src.ptr, src.col, src.val, add)
	}
	src.rows, src.col, src.val = src.rows[:0], src.col[:0], src.val[:0]
	src.ptr = append(src.ptr[:0], 0)
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
	nr, nnz := 0, 0
	for _, m := range ms {
		m.Wait()
		nr, nnz = nr+len(m.rows), nnz+len(m.col)
	}
	acc := &Matrix[T]{
		nrows: ms[0].nrows, ncols: ms[0].ncols, accum: ms[0].accum,
		rows: make([]Index, 0, nr), ptr: make([]int, 1, nr+1),
		col: make([]Index, 0, nnz), val: make([]T, 0, nnz),
	}
	plus := Plus[T]().Op
	for _, m := range ms {
		if err := AddAssign(acc, m, plus); err != nil {
			return nil, err
		}
	}
	return acc, nil
}
