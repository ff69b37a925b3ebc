package gb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The in-place kernel (mergeInPlace, behind AddAssign, Promote and Wait) is
// held to two references: mergeDCSR, the out-of-place kernel it replaced on
// those paths, and a map[(i,j)]T model. Every case runs with a
// non-commutative operator, so a swapped operand order cannot pass.

func minus[T Number](a, b T) T { return a - b }

// cell is one (row, col) coordinate; values are derived from it so that a
// misplaced value cannot collide with the right one.
type cell struct{ i, j Index }

func matrixOf[T Number](cells []cell, scale T) *Matrix[T] {
	m := MustNewMatrix[T](1<<40, 1<<40)
	for k, c := range cells {
		if err := m.SetElement(c.i, c.j, scale*T(k+1)); err != nil {
			panic(err)
		}
	}
	m.Wait()
	return m
}

// withCapacity reallocates m's DCSR arrays to hold exactly nr rows and nnz
// cells (never less than they hold now).
func withCapacity[T Number](m *Matrix[T], nr, nnz int) {
	nr, nnz = max(nr, len(m.rows)), max(nnz, len(m.col))
	m.rowsBase, m.ptrBase = nil, nil
	m.rows = append(make([]Index, 0, nr), m.rows...)
	m.ptr = append(make([]int, 0, nr+1), m.ptr...)
	m.col = append(make([]Index, 0, nnz), m.col...)
	m.val = append(make([]T, 0, nnz), m.val...)
}

// The capacities checkMergeCap gives dst before merging src into it.
const (
	capAsBuilt    = iota
	capExact      // the merged size
	capUpperBound // len(dst)+len(src) rows and cells: the kernel's own sizing, so it closes its gaps in place
	capOneShort   // one row and one cell short of the merged size
	numCaps
)

// checkMerge runs checkMergeCap at every capacity.
func checkMerge[T Number](t *testing.T, dstCells, srcCells []cell) {
	t.Helper()
	for c := 0; c < numCaps; c++ {
		checkMergeCap[T](t, dstCells, srcCells, c)
	}
}

// checkMergeCap runs dst ⊕= src through AddAssign and through Promote, with
// dst given capacity c, and compares each result with mergeDCSR's and the
// map model's. Each result then moves to an empty matrix, takes a second
// Promote there — a merge into arrays the first may have slid — and a Trim,
// which must hand the slid front back.
func checkMergeCap[T Number](t *testing.T, dstCells, srcCells []cell, c int) {
	t.Helper()
	build := func() (dst, src *Matrix[T]) { return matrixOf(dstCells, T(100)), matrixOf(srcCells, T(1)) }
	dst, src := build()
	want, model := mergeRef(dst, src)
	again := matrixOf(srcCells, T(3))
	want2, model2 := mergeRef(want, again)

	for _, promote := range []bool{false, true} {
		dst, src := build()
		srcBefore := src.Dup()
		switch c {
		case capExact:
			withCapacity(dst, len(want.rows), len(want.col))
		case capUpperBound:
			withCapacity(dst, len(dst.rows)+len(src.rows), len(dst.col)+len(src.col))
		case capOneShort:
			withCapacity(dst, len(want.rows)-1, len(want.col)-1)
		}
		rowsArr, colArr := dst.rows[:cap(dst.rows)], dst.col[:cap(dst.col)]
		var err error
		if promote {
			err = Promote(dst, src, minus[T])
		} else {
			err = AddAssign(dst, src, minus[T])
		}
		name := fmt.Sprintf("promote=%v capacity=%d", promote, c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAgainst(t, name, dst, want, model)
		if c == capUpperBound && len(colArr) > 0 {
			rows := dst.rows
			if dst.rowsBase != nil {
				rows = dst.rowsBase
			}
			if &rows[:1][0] != &rowsArr[0] || &dst.col[:1][0] != &colArr[0] {
				t.Fatalf("%s: the merge reallocated within its upper bound", name)
			}
		}
		mustInvariants(t, src)
		if promote {
			if src.NVals() != 0 {
				t.Fatalf("%s: Promote left %d entries in src", name, src.NVals())
			}
		} else if !Equal(src, srcBefore) {
			t.Fatalf("%s: AddAssign changed src", name)
		}

		// An empty matrix takes the result's arrays whole (Promote's
		// hand-over) and merges once more in them; the arrays dst is left
		// with are refilled, and must not be the ones it handed over.
		moved := MustNewMatrix[T](dst.nrows, dst.ncols)
		if err := Promote(moved, dst, minus[T]); err != nil {
			t.Fatalf("%s, handed over: %v", name, err)
		}
		if err := Promote(dst, again.Dup(), minus[T]); err != nil {
			t.Fatalf("%s, refilled: %v", name, err)
		}
		if err := Promote(moved, again.Dup(), minus[T]); err != nil {
			t.Fatalf("%s, handed over, then Promote: %v", name, err)
		}
		checkAgainst(t, name+", refilled", dst, again, denseOf(again))
		checkAgainst(t, name+", handed over, then Promote", moved, want2, model2)
		moved.Trim()
		slid := moved.rowsBase != nil || inside(rowsArr, moved.rows) && &moved.rows[:1][0] != &rowsArr[0]
		if slid || cap(moved.rows)-len(moved.rows) > len(moved.rows)/8 {
			t.Fatalf("%s, then Trim: %d rows kept in %d (slid: %v)", name, len(moved.rows), cap(moved.rows), slid)
		}
		checkAgainst(t, name+", then Trim", moved, want2, model2)
	}
}

// mergeRef returns dst ⊕ src under minus by mergeDCSR and by the map model.
func mergeRef[T Number](dst, src *Matrix[T]) (*Matrix[T], map[[2]Index]T) {
	want := &Matrix[T]{nrows: dst.nrows, ncols: dst.ncols, accum: dst.accum}
	want.rows, want.ptr, want.col, want.val = mergeDCSR(
		dst.rows, dst.ptr, dst.col, dst.val, src.rows, src.ptr, src.col, src.val, minus[T])
	model := denseOf(dst)
	for c, v := range denseOf(src) {
		if d, ok := model[c]; ok {
			model[c] = d - v
		} else {
			model[c] = v
		}
	}
	return want, model
}

// checkAgainst fails the test unless got is well formed, equals want and
// agrees with model cell by cell. Slid rows and ptr must lie inside the
// arrays kept for them.
func checkAgainst[T Number](t *testing.T, name string, got, want *Matrix[T], model map[[2]Index]T) {
	t.Helper()
	mustInvariants(t, got)
	if got.rowsBase != nil && (!inside(got.rowsBase, got.rows) || !inside(got.ptrBase, got.ptr)) {
		t.Fatalf("%s: slid rows/ptr are not inside the arrays kept for them", name)
	}
	if !Equal(got, want) {
		t.Fatalf("%s: in-place result differs from mergeDCSR\n got %v\nwant %v", name, tuplesOf(got), tuplesOf(want))
	}
	dense := denseOf(got)
	if len(dense) != len(model) {
		t.Fatalf("%s: %d cells, model has %d", name, len(dense), len(model))
	}
	for c, v := range model {
		if dense[c] != v {
			t.Fatalf("%s: cell %v = %v, model says %v", name, c, dense[c], v)
		}
	}
}

// inside reports whether s is a tail of base's backing array.
func inside[E any](base, s []E) bool {
	cb, cs := cap(base), cap(s)
	return cs > 0 && cb >= cs && &base[:cb][cb-1] == &s[:cs][cs-1]
}

func mergeShapes() map[string][2][]cell {
	const wide = Index(1) << 33
	rowsOf := func(from, n int) []cell {
		var out []cell
		for k := 0; k < n; k++ {
			out = append(out, cell{Index(from + k), Index(3 * k)}, cell{Index(from + k), Index(3*k + 7)})
		}
		return out
	}
	shift := func(cs []cell) []cell { // same rows, no cell in common
		out := make([]cell, len(cs))
		for k, c := range cs {
			out[k] = cell{c.i, c.j + 1}
		}
		return out
	}
	everyOther := func(cs []cell) []cell {
		var out []cell
		for k := 0; k < len(cs); k += 2 {
			out = append(out, cs[k])
		}
		return out
	}
	shared := rowsOf(10, 6)
	return map[string][2][]cell{
		"both empty":       {nil, nil},
		"empty dst":        {nil, rowsOf(0, 5)},
		"empty src":        {rowsOf(0, 5), nil},
		"src rows above":   {rowsOf(0, 5), rowsOf(100, 5)},
		"src rows below":   {rowsOf(100, 5), rowsOf(0, 5)},
		"identical":        {shared, shared},
		"src larger":       {rowsOf(10, 3), rowsOf(0, 40)},
		"rows interleaved": {{{0, 1}, {2, 1}, {4, 1}, {6, 1}}, {{1, 1}, {3, 1}, {5, 1}, {7, 1}}},
		"one shared row, columns interleaved": {
			{{5, 0}, {5, 2}, {5, 4}, {5, 6}, {5, 8}},
			{{5, 1}, {5, 2}, {5, 3}, {5, 7}, {5, 8}, {5, 9}},
		},
		"shared row between disjoint ones": {
			{{1, 1}, {5, 1}, {5, 3}, {9, 9}},
			{{0, 0}, {5, 2}, {5, 3}, {12, 1}},
		},
		"indices beyond 2^32": {
			{{wide, wide + 1}, {wide, wide + 3}, {wide + 2, 1}},
			{{3, wide}, {wide, wide + 2}, {wide, wide + 3}, {wide + 5, wide + 5}},
		},
		// The row gap closed by sliding dst's shorter prefix up.
		"every src row shared, no cell shared": {rowsOf(0, 30), shift(rowsOf(5, 25))},
		// The row gap closed by moving the shorter written block down.
		"shared rows, prefix longer than the written block": {rowsOf(0, 30), shift(rowsOf(27, 3))},
		// The cell gap opens at the first row written and is carried by all others.
		"collisions only in the last row":               {rowsOf(0, 10), append(shift(rowsOf(0, 9)), rowsOf(0, 10)[18:]...)},
		"src entirely below dst, sharing its first row": {rowsOf(10, 5), shift(rowsOf(0, 11))},
		"every src cell colliding":                      {rowsOf(0, 20), everyOther(rowsOf(0, 20))},
	}
}

func TestMergeInPlaceShapes(t *testing.T) {
	for name, s := range mergeShapes() {
		t.Run(name+"/uint64", func(t *testing.T) { checkMerge[uint64](t, s[0], s[1]) })
		t.Run(name+"/float64", func(t *testing.T) { checkMerge[float64](t, s[0], s[1]) })
	}
}

func TestMergeInPlaceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	randCells := func(n int, dim uint64) []cell {
		seen := make(map[cell]bool)
		var out []cell
		for k := 0; k < n; k++ {
			c := cell{Index(r.Uint64() % dim), Index(r.Uint64() % dim)}
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
		return out
	}
	for round := 0; round < 60; round++ {
		// Small dimensions force shared rows and colliding cells; the size
		// ratio swings both ways.
		dim := uint64(4 + r.Intn(28))
		dst, src := randCells(r.Intn(120), dim), randCells(r.Intn(120), dim)
		checkMerge[uint64](t, dst, src)
		checkMerge[float64](t, dst, src)
	}
}

// TestAddAssignAliasAndOrder pins the two contracts the out-of-place kernel
// met by construction: dst == src folds each value with itself, and a
// colliding cell is op(dstVal, srcVal), never the reverse.
func TestAddAssignAliasAndOrder(t *testing.T) {
	a := MustNewMatrix[int64](8, 8)
	_ = a.SetElement(1, 2, 5)
	_ = a.SetElement(3, 4, -7)
	if err := AddAssign(a, a, Plus[int64]().Op); err != nil {
		t.Fatal(err)
	}
	mustInvariants(t, a)
	if got := denseOf(a); len(got) != 2 || got[[2]Index{1, 2}] != 10 || got[[2]Index{3, 4}] != -14 {
		t.Fatalf("a += a gave %v, want every value doubled", got)
	}
	if err := AddAssign(a, a, minus[int64]); err != nil {
		t.Fatal(err)
	}
	if got := denseOf(a); len(got) != 2 || got[[2]Index{1, 2}] != 0 || got[[2]Index{3, 4}] != 0 {
		t.Fatalf("a -= a gave %v, want the pattern kept with zeros", got)
	}

	dst := MustNewMatrix[int64](8, 8)
	src := MustNewMatrix[int64](8, 8)
	_ = dst.SetElement(2, 2, 10)
	_ = src.SetElement(2, 2, 3)
	if err := AddAssign(dst, src, minus[int64]); err != nil {
		t.Fatal(err)
	}
	if v, _ := dst.ExtractElement(2, 2); v != 7 {
		t.Fatalf("minus: dst(2,2) = %d, want 10-3", v)
	}
	if err := AddAssign(dst, src, first[int64]); err != nil {
		t.Fatal(err)
	}
	if v, _ := dst.ExtractElement(2, 2); v != 7 {
		t.Fatalf("first: dst(2,2) = %d, want dst's own 7", v)
	}
}

// TestPromoteRetainsAndTrimReleases: a promoted-from matrix keeps its
// buffers for the next fill; Trim is what lets them go, and leaves a
// non-empty matrix within 1/8 of its length.
func TestPromoteRetainsAndTrimReleases(t *testing.T) {
	rows, cols, vals := benchTuples(4096, 1<<20, 11)
	src := MustNewMatrix[uint64](1<<20, 1<<20)
	dst := MustNewMatrix[uint64](1<<20, 1<<20)
	plus := Plus[uint64]().Op
	for round := 0; round < 3; round++ {
		if err := src.AppendTuples(rows, cols, vals); err != nil {
			t.Fatal(err)
		}
		if err := Promote(dst, src, plus); err != nil {
			t.Fatal(err)
		}
	}
	if stored, staging := src.Capacity(); src.NVals() != 0 || stored == 0 || staging == 0 {
		t.Fatalf("after Promote src holds %d entries, capacity %d stored / %d staging; want empty with both retained",
			src.NVals(), stored, staging)
	}
	if err := Promote(src, src, plus); err == nil {
		t.Fatal("Promote(a, a) succeeded")
	}
	src.Trim()
	if stored, staging := src.Capacity(); stored != 0 || staging != 0 {
		t.Fatalf("Trim left an empty matrix with capacity %d stored / %d staging", stored, staging)
	}
	n := dst.NVals()
	dst.Trim()
	if stored, staging := dst.Capacity(); staging != 0 || stored < n || stored > n+n/8 {
		t.Fatalf("Trim left %d entries with capacity %d stored / %d staging", n, stored, staging)
	}
	once, _ := MatrixFromTuples(1<<20, 1<<20, rows, cols, vals, plus)
	want := once.Dup()
	_ = AddAssign(want, want, plus)
	_ = AddAssign(want, once, plus)
	if !Equal(dst, want) {
		t.Fatal("three promotions of one batch differ from three times the batch")
	}
}

// FuzzMergeInPlace runs checkMergeCap on two small decoded cell sets at a
// decoded capacity, for both value types. Seeded from mergeShapes at every
// capacity.
func FuzzMergeInPlace(f *testing.F) {
	for _, s := range mergeShapes() {
		for c := 0; c < numCaps; c++ {
			f.Add(encodeShape(c, s[0], s[1]))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, dst, src := decodeShape(data)
		checkMergeCap[uint64](t, dst, src, c)
		checkMergeCap[float64](t, dst, src, c)
	})
}

// decodeShape reads a capacity (data[0] mod numCaps), a dimension
// (1+data[1]) and a dst cell count (data[2]), then (row, col) byte pairs
// taken modulo the dimension: the first data[2] pairs are dst's cells, the
// rest src's.
func decodeShape(data []byte) (c int, dst, src []cell) {
	if len(data) < 3 {
		return 0, nil, nil
	}
	c, dim, nd := int(data[0])%numCaps, Index(data[1])+1, int(data[2])
	for k := 3; k+1 < len(data); k += 2 {
		x := cell{Index(data[k]) % dim, Index(data[k+1]) % dim}
		if (k-3)/2 < nd {
			dst = append(dst, x)
		} else {
			src = append(src, x)
		}
	}
	return c, dst, src
}

// encodeShape is decodeShape's inverse for cells below 256; larger indices
// keep their low byte.
func encodeShape(c int, dst, src []cell) []byte {
	out := []byte{byte(c), 255, byte(len(dst))}
	for _, x := range slices.Concat(dst, src) {
		out = append(out, byte(x.i), byte(x.j))
	}
	return out
}
