package gb

// mergeInPlace performs m ⊕= s in m's own DCSR arrays, where s is the DCSR
// structure (sr, sp, sc, sv): colliding cells become op(mVal, sVal), every
// other cell of either side is kept. It is the single kernel behind Wait,
// AddAssign and Promote — the cascade step "A(i+1) += A(i)" — so the price
// of one moved entry here is the ingest rate.
//
// There is no counting pass. The arrays are sized for the upper bounds
// len(m)+len(s) rows and cells (reserve, amortised), and the merge runs
// backwards from the high end with plain index writes. A write cursor is
// never below the matching read cursor — the gap is the number of s rows or
// cells still to be placed plus the shared ones already placed — so nothing
// unread is overwritten, and once s is exhausted the remaining prefix of m
// is already in place and the loop stops. There is deliberately no
// galloping or bulk-copy path: at the cascade's size ratios (nnz(m)/nnz(s)
// ≈ 8, rows of ~1.3 cells) runs are too short to pay for a memmove call.
//
// What the bounds overcounted is then a gap between m's untouched prefix
// and the written block: dr shared rows, dc colliding cells. The row gap,
// common on power-law streams, closes by moving the shorter side: usually
// the prefix below s's first row slides up and rows/ptr start dr places
// later in their arrays (slide), otherwise the written rows move down. The
// cell gap, rare at scale, closes by moving the written cells down and
// fixing their row pointers.
//
// s must not alias m's arrays.
//
//hhgb:noalloc
func (m *Matrix[T]) mergeInPlace(sr []Index, sp []int, sc []Index, sv []T, op BinaryOp[T]) {
	if len(sc) == 0 {
		return
	}
	i, x := len(m.rows)-1, len(m.col)-1 // read cursors: m's last unread row and cell
	nr, nnz := len(m.rows)+len(sr), len(m.col)+len(sc)
	m.reserveRows(nr)
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
	// Rows 0..i and cells 0..x are m's untouched prefix; the written block
	// is rows wr+1..nr-1 and cells w+1..nnz-1.
	if dc := w - x; dc > 0 {
		copy(col[x+1:], col[w+1:])
		copy(val[x+1:], val[w+1:])
		m.col, m.val = col[:nnz-dc], val[:nnz-dc]
		for k := wr + 1; k <= nr; k++ {
			ptr[k] -= dc
		}
	}
	if dr := wr - i; dr > 0 {
		if i+1 < nr-1-wr {
			copy(rows[dr:], rows[:i+1])
			copy(ptr[dr:], ptr[:i+1])
			m.slide(dr)
		} else {
			copy(rows[i+1:], rows[wr+1:nr])
			copy(ptr[i+1:], ptr[wr+1:])
			m.rows, m.ptr = rows[:nr-dr], ptr[:nr-dr+1]
		}
	}
}

// slide starts rows and ptr d places later in their arrays, keeping the
// arrays whole in rowsBase and ptrBase so that the front it leaves behind
// can be handed back (unslide).
func (m *Matrix[T]) slide(d int) {
	if m.rowsBase == nil {
		m.rowsBase, m.ptrBase = m.rows[:cap(m.rows)], m.ptr[:cap(m.ptr)]
	}
	m.rows, m.ptr = m.rows[d:], m.ptr[d:]
}

// unslide moves rows and ptr back to the start of their arrays.
func (m *Matrix[T]) unslide() {
	m.rows = m.rowsBase[:copy(m.rowsBase, m.rows)]
	m.ptr = m.ptrBase[:copy(m.ptrBase, m.ptr)]
	m.rowsBase, m.ptrBase = nil, nil
}

// reserveRows extends rows and ptr to n and n+1 elements, keeping what they
// hold. The front a slide left is used before anything is allocated: rows
// and ptr move back to the start of their arrays when they are empty or
// when the room after them is too short but the whole array is not.
func (m *Matrix[T]) reserveRows(n int) {
	if m.rowsBase != nil && (len(m.rows) == 0 || cap(m.rows) < n || cap(m.ptr) <= n) {
		if cap(m.rowsBase) >= n && cap(m.ptrBase) > n {
			m.unslide()
		} else {
			m.rowsBase, m.ptrBase = nil, nil
		}
	}
	m.rows = reserve(m.rows, n)[:n]
	m.ptr = reserve(m.ptr, n+1)[:n+1]
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
