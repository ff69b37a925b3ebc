package gb

import "fmt"

// Extract returns C(i', j') = A(rowIdx[i'], colIdx[j']) — the submatrix
// selected (and relabeled) by the given index lists. A nil list selects
// every index in order (GrB_ALL); for a hypersparse matrix that means the
// identity relabeling, not materializing 2^64 rows.
func Extract[T Number](a *Matrix[T], rowIdx, colIdx []Index) (*Matrix[T], error) {
	a.Wait()

	outRows := Index(uint64(len(rowIdx)))
	if rowIdx == nil {
		outRows = a.nrows
	}
	outCols := Index(uint64(len(colIdx)))
	if colIdx == nil {
		outCols = a.ncols
	}
	if outRows == 0 || outCols == 0 {
		return nil, fmt.Errorf("%w: empty extract index list", ErrInvalidValue)
	}
	for _, i := range rowIdx {
		if i >= a.nrows {
			return nil, fmt.Errorf("%w: row %d outside %d", ErrIndexOutOfBounds, i, a.nrows)
		}
	}
	for _, j := range colIdx {
		if j >= a.ncols {
			return nil, fmt.Errorf("%w: col %d outside %d", ErrIndexOutOfBounds, j, a.ncols)
		}
	}

	// Column relabeling map (old id -> new position, keeping duplicates'
	// last position like GrB extract with duplicate indices is undefined;
	// we take the last occurrence deterministically).
	var colMap map[Index]Index
	if colIdx != nil {
		colMap = make(map[Index]Index, len(colIdx))
		for p, j := range colIdx {
			colMap[j] = Index(uint64(p))
		}
	}

	var rr, cc []Index
	var vv []T
	appendRow := func(srcRow int, newID Index) {
		for p := a.ptr[srcRow]; p < a.ptr[srcRow+1]; p++ {
			j := a.col[p]
			if colMap != nil {
				nj, ok := colMap[j]
				if !ok {
					continue
				}
				j = nj
			}
			rr = append(rr, newID)
			cc = append(cc, j)
			vv = append(vv, a.val[p])
		}
	}

	if rowIdx == nil {
		for k := range a.rows {
			appendRow(k, a.rows[k])
		}
	} else {
		for p, i := range rowIdx {
			if k, ok := searchIndex(a.rows, i); ok {
				appendRow(k, Index(uint64(p)))
			}
		}
	}
	return MatrixFromTuples(outRows, outCols, rr, cc, vv, Second[T])
}
