package gb

// mergeInPlace performs m ⊕= s in m's own arrays, where s is the sorted,
// duplicate-free triples (sr, sc, sv): colliding cells become op(mVal,
// sVal), every other cell of either side is kept. It is the single kernel
// behind Wait, AddAssign and Promote — the cascade step "A(i+1) += A(i)" —
// so the price of one moved entry here is the ingest rate.
//
// There is no counting pass. The arrays are sized for the upper bound
// len(m)+len(s) (reserve, amortised), and the merge runs backwards from the
// high end with plain index writes: one row id, column id and value per
// cell, and nothing per row. The write cursor is never below the read
// cursor — the gap is the number of s cells still to be placed plus the
// collisions already placed — so nothing unread is overwritten, and once s
// is exhausted the remaining prefix of m is already in place and the loop
// stops. There is deliberately no galloping or bulk-copy path: at the
// cascade's size ratios (nnz(m)/nnz(s) ≈ 8) runs are too short to pay for a
// memmove call.
//
// What the bound overcounted is then a gap of one cell per collision
// between m's untouched prefix and the written block. It closes by moving
// the shorter side. On power-law levels the first cell of s lands near the
// front of m, so a single collision would otherwise move nearly the whole
// level: the prefix moves up instead, and the slices then start that many
// places later in their arrays. Those slots stay unused until the arrays
// are replaced (front), so the prefix moves only while they stay within
// 1/16 of the arrays; past that, or when the written block is shorter, the
// block moves down.
//
// s must not alias m's arrays.
//
//hhgb:noalloc
func (m *Matrix[T]) mergeInPlace(sr, sc []Index, sv []T, op BinaryOp[T]) {
	if len(sc) == 0 {
		return
	}
	x, nnz := len(m.col)-1, len(m.col)+len(sc) // x: m's last unread cell
	if cap(m.col) < nnz {
		m.front = 0 // all three move to new arrays
	}
	m.row = reserve(m.row, nnz)[:nnz]
	m.col = reserve(m.col, nnz)[:nnz]
	m.val = reserve(m.val, nnz)[:nnz]
	row, col, val := m.row, m.col, m.val
	if x < 0 { // m was empty: the result is s
		copy(row, sr)
		copy(col, sc)
		copy(val, sv)
		return
	}
	w := nnz - 1 // write cursor
	for y := len(sc) - 1; y >= 0; y, w = y-1, w-1 {
		r, c, v := sr[y], sc[y], sv[y]
		for ; x >= 0 && (row[x] > r || row[x] == r && col[x] > c); x, w = x-1, w-1 {
			row[w], col[w], val[w] = row[x], col[x], val[x]
		}
		if x >= 0 && row[x] == r && col[x] == c {
			v = op(val[x], v)
			x--
		}
		row[w], col[w], val[w] = r, c, v
	}
	// Cells 0..x are m's untouched prefix, w+1..nnz-1 the written block.
	if gap := w - x; gap > 0 {
		if x+1 < nnz-1-w && m.front+gap <= (m.front+cap(row))/16 {
			copy(row[gap:], row[:x+1])
			copy(col[gap:], col[:x+1])
			copy(val[gap:], val[:x+1])
			m.row, m.col, m.val = row[gap:], col[gap:], val[gap:]
			m.front += gap
		} else {
			copy(row[x+1:], row[w+1:])
			copy(col[x+1:], col[w+1:])
			copy(val[x+1:], val[w+1:])
			m.row, m.col, m.val = row[:nnz-gap], col[:nnz-gap], val[:nnz-gap]
		}
	}
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
