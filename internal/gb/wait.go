package gb

import "slices"

// Wait materializes all pending updates into the stored entries, combining
// duplicates with the matrix accumulator. It is idempotent and cheap when
// nothing is pending. This is the analogue of GrB_Matrix_wait: after Wait,
// NVals/Iterate/algebraic kernels see a fully assembled matrix.
//
// Cost: O(p) radix passes to sort p pending entries (O(p log p) comparison
// fallback for indices >= 2^32) plus O(p + nvals) to union-merge with the
// existing entries. The hierarchical cascade keeps p and nvals small at
// the lowest level, which is where almost all Waits happen.
//
// Allocation: the sort runs in scratch buffers retained on the matrix, the
// sorted pending entries are merged from where they lie into the matrix's
// own arrays (mergeInPlace) — or, into an empty matrix, become its arrays
// while the pending buffers take the emptied ones — and the pending slices
// are truncated, not released. So a warm Wait allocates nothing unless the
// stored arrays have to grow, to at least twice what they hold.
func (m *Matrix[T]) Wait() {
	if len(m.pRow) != 0 {
		m.materialize(m.accum)
	}
}

// materialize sorts the pending entries, folds duplicates with op, merges
// the result into the stored entries (colliding cells fold with op too) and
// empties the pending buffers, keeping their capacity. Wait runs it with
// the accumulator, Build with its dup operator on an empty matrix.
func (m *Matrix[T]) materialize(op BinaryOp[T]) {
	m.sortPending()
	n := combineSoA(m.pRow, m.pCol, m.pVal, op)
	if len(m.col) == 0 {
		m.row, m.pRow = m.pRow[:n], m.row[:0]
		m.col, m.pCol = m.pCol[:n], m.col[:0]
		m.val, m.pVal = m.pVal[:n], m.val[:0]
		m.front = 0
		return
	}
	m.mergeInPlace(m.pRow[:n], m.pCol[:n], m.pVal[:n], op)
	m.pRow = m.pRow[:0]
	m.pCol = m.pCol[:0]
	m.pVal = m.pVal[:0]
}

// sortPending orders the pending SoA entries by (row, col) ascending;
// equal keys keep their relative order (stable), so duplicate combination
// is deterministic even for non-commutative accumulators.
//
// When every index fits in 32 bits — the IPv4 traffic-matrix case and the
// hot path of the streaming benchmarks — the (row, col) pair packs into a
// single uint64 key sorted in the matrix's retained scratch: an LSD radix
// sort (stable by construction) for large batches, a binary-insertion sort
// for small ones, neither allocating once the scratch is warm. Indices
// that need more than 32 bits fall back to a comparison sort over
// temporary AoS tuples.
func (m *Matrix[T]) sortPending() {
	n := len(m.pRow)
	if n < 2 {
		return
	}
	var any Index
	for k := 0; k < n; k++ {
		any |= m.pRow[k] | m.pCol[k]
	}
	if any >= 1<<32 {
		m.sortPendingWide()
		return
	}
	s := &m.scratch
	if cap(s.keyA) < n {
		s.keyA = make([]uint64, n)
		s.keyB = make([]uint64, n)
		s.valA = make([]T, n)
		s.valB = make([]T, n)
	}
	ka, kb := s.keyA[:n], s.keyB[:n]
	va, vb := s.valA[:n], s.valB[:n]
	andKey := ^uint64(0)
	orKey := uint64(0)
	for k := 0; k < n; k++ {
		key := uint64(m.pRow[k])<<32 | uint64(m.pCol[k])
		ka[k] = key
		va[k] = m.pVal[k]
		andKey &= key
		orKey |= key
	}
	if n >= 128 {
		ka, va = radixSortPacked(ka, kb, va, vb, andKey, orKey)
	} else {
		insertionSortPacked(ka, va)
	}
	for k := 0; k < n; k++ {
		m.pRow[k] = Index(ka[k] >> 32)
		m.pCol[k] = Index(ka[k] & 0xffffffff)
		m.pVal[k] = va[k]
	}
}

// sortPendingWide is the >=2^32-index fallback: a stable comparison sort
// over temporary AoS tuples. It allocates; batches with indices that wide
// are outside the packed-key hot path by construction.
func (m *Matrix[T]) sortPendingWide() {
	n := len(m.pRow)
	t := make([]Tuple[T], n)
	for k := 0; k < n; k++ {
		t[k] = Tuple[T]{Row: m.pRow[k], Col: m.pCol[k], Val: m.pVal[k]}
	}
	slices.SortStableFunc(t, func(a, b Tuple[T]) int {
		switch {
		case a.Row < b.Row:
			return -1
		case a.Row > b.Row:
			return 1
		case a.Col < b.Col:
			return -1
		case a.Col > b.Col:
			return 1
		default:
			return 0
		}
	})
	for k := 0; k < n; k++ {
		m.pRow[k] = t[k].Row
		m.pCol[k] = t[k].Col
		m.pVal[k] = t[k].Val
	}
}

// radixSortPacked sorts the packed keys (values riding along) with an LSD
// byte-wise counting sort, ping-ponging between the (ka, va) and (kb, vb)
// buffer pairs. Counting sort is stable, so the composition is stable. One
// read pass counts all eight byte digits (a scatter pass permutes the keys,
// not their digit histograms); byte positions where every key agrees
// (and/or masks) are then skipped — power-law batches typically need only
// 4-6 of the 8 scatter passes. Returns the buffer pair holding the sorted
// result.
func radixSortPacked[T any](ka, kb []uint64, va, vb []T, andKey, orKey uint64) ([]uint64, []T) {
	var counts [8][256]int
	for _, key := range ka {
		counts[0][byte(key)]++
		counts[1][byte(key>>8)]++
		counts[2][byte(key>>16)]++
		counts[3][byte(key>>24)]++
		counts[4][byte(key>>32)]++
		counts[5][byte(key>>40)]++
		counts[6][byte(key>>48)]++
		counts[7][byte(key>>56)]++
	}
	for digit := range counts {
		shift := uint(8 * digit)
		if byte(andKey>>shift) == byte(orKey>>shift) {
			continue
		}
		c := &counts[digit]
		sum := 0
		for i, n := range c {
			c[i] = sum
			sum += n
		}
		for k, key := range ka {
			d := byte(key >> shift)
			kb[c[d]] = key
			vb[c[d]] = va[k]
			c[d]++
		}
		ka, kb = kb, ka
		va, vb = vb, va
	}
	return ka, va
}

// insertionSortPacked is the small-batch packed-key sort: stable, in
// place, allocation-free, and faster than setting up radix passes below
// ~128 entries.
func insertionSortPacked[T any](keys []uint64, vals []T) {
	for i := 1; i < len(keys); i++ {
		k, v := keys[i], vals[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1] = keys[j]
			vals[j+1] = vals[j]
			j--
		}
		keys[j+1] = k
		vals[j+1] = v
	}
}

// combineSoA collapses runs of equal (row, col) in the sorted SoA slices
// by folding values left-to-right with op, in place. It returns the
// deduplicated length.
func combineSoA[T Number](rows, cols []Index, vals []T, op BinaryOp[T]) int {
	if len(rows) == 0 {
		return 0
	}
	w := 0
	for r := 1; r < len(rows); r++ {
		if rows[r] == rows[w] && cols[r] == cols[w] {
			vals[w] = op(vals[w], vals[r])
		} else {
			w++
			rows[w] = rows[r]
			cols[w] = cols[r]
			vals[w] = vals[r]
		}
	}
	return w + 1
}
