package gb

// mergeInPlace performs m ⊕= s in m's own DCSR arrays, where s is the DCSR
// structure (sr, sp, sc, sv): colliding cells become op(mVal, sVal), every
// other cell of either side is kept. It is the single kernel behind Wait,
// AddAssign and Promote — the cascade step "A(i+1) += A(i)" — so the price
// of one moved entry here is the ingest rate.
//
// A counting pass sizes the result exactly, the arrays grow once (reserve,
// amortised), and the merge runs backwards from the high end with plain
// index writes. A write cursor is never below the matching read cursor —
// the gap is the number of s rows/cells still to be placed — so nothing
// unread is overwritten, and once s is exhausted the remaining prefix of m
// is already where it belongs and the loop stops. There is deliberately no
// galloping or bulk-copy path: at the cascade's size ratios (nnz(m)/nnz(s)
// ≈ 8, rows of ~1.3 cells) runs are too short to pay for a memmove call.
//
// s must not alias m's arrays.
//
//hhgb:noalloc
func (m *Matrix[T]) mergeInPlace(sr []Index, sp []int, sc []Index, sv []T, op BinaryOp[T]) {
	if len(sc) == 0 {
		return
	}
	nr, nnz := m.mergedSize(sr, sp, sc)
	i, x := len(m.rows)-1, len(m.col)-1 // read cursors: m's last unread row and cell
	m.rows = reserve(m.rows, nr)[:nr]
	m.ptr = reserve(m.ptr, nr+1)[:nr+1]
	m.col = reserve(m.col, nnz)[:nnz]
	m.val = reserve(m.val, nnz)[:nnz]
	rows, ptr, col, val := m.rows, m.ptr, m.col, m.val
	if x < 0 { // m was empty: the result is s
		copy(rows, sr)
		copy(ptr, sp)
		copy(col, sc)
		copy(val, sv)
		return
	}
	ptr[nr] = nnz
	wr, w := nr-1, nnz-1 // write cursors
	for j := len(sr) - 1; j >= 0; j-- {
		s := sr[j]
		// The rows of m above s move up as one block: row ids and row
		// pointers by wr-i places, cells by d places, no per-row work
		// beyond the two stores. ptr[i] is read before ptr[wr] (wr >= i) is
		// stored.
		d, lo := w-x, x+1
		for ; i >= 0 && rows[i] > s; i, wr = i-1, wr-1 {
			lo = ptr[i]
			rows[wr], ptr[wr] = rows[i], lo+d
		}
		for ; x >= lo; x-- {
			col[x+d], val[x+d] = col[x], val[x]
		}
		w = x + d
		// Row s itself: merged with m's row when both have it.
		y, ylo := sp[j+1]-1, sp[j]
		if i >= 0 && rows[i] == s {
			for lo = ptr[i]; x >= lo && y >= ylo; w-- {
				switch cx, cy := col[x], sc[y]; {
				case cx > cy:
					col[w], val[w] = cx, val[x]
					x--
				case cx < cy:
					col[w], val[w] = cy, sv[y]
					y--
				default:
					col[w], val[w] = cx, op(val[x], sv[y])
					x--
					y--
				}
			}
			for ; x >= lo; x, w = x-1, w-1 {
				col[w], val[w] = col[x], val[x]
			}
			i--
		}
		for ; y >= ylo; y, w = y-1, w-1 {
			col[w], val[w] = sc[y], sv[y]
		}
		rows[wr], ptr[wr] = s, w+1
		wr--
	}
}

// mergedSize returns the exact row and cell counts of m ∪ s: the sums,
// less the rows and cells present on both sides. It reads m's row ids from
// s's first row on, and column runs only of shared rows.
//
//hhgb:noalloc
func (m *Matrix[T]) mergedSize(sr []Index, sp []int, sc []Index) (nr, nnz int) {
	rows, ptr, col := m.rows, m.ptr, m.col
	nr, nnz = len(rows)+len(sr), len(col)+len(sc)
	i, _ := searchIndex(rows, sr[0])
	for j, s := range sr {
		for i < len(rows) && rows[i] < s {
			i++
		}
		if i == len(rows) {
			break
		}
		if rows[i] != s {
			continue
		}
		nr--
		x, xe := ptr[i], ptr[i+1]
		y, ye := sp[j], sp[j+1]
		for x < xe && y < ye {
			switch cx, cy := col[x], sc[y]; {
			case cx < cy:
				x++
			case cx > cy:
				y++
			default:
				nnz--
				x++
				y++
			}
		}
		i++
	}
	return nr, nnz
}

// reserve returns s with capacity for at least n elements. When it has to
// reallocate it leaves room for at least twice what s holds now, so the
// elements it copies are paid for by as many appended before the next
// reallocation: O(1) copies per element. (slices.Grow's 1.25x policy
// reallocates on almost every promotion into a growing level; doubling the
// capacity instead of the length would carry the slack of handed-over
// arrays forward.) It is the one allocation site behind the
// //hhgb:noalloc staging and merge paths.
func reserve[E any](s []E, n int) []E {
	if n <= cap(s) {
		return s
	}
	grown := make([]E, len(s), max(n, 2*len(s)))
	copy(grown, s)
	return grown
}
