package gb

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewMatrixRejectsZeroDims(t *testing.T) {
	if _, err := NewMatrix[int64](0, 5); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("want ErrInvalidValue, got %v", err)
	}
	if _, err := NewMatrix[int64](5, 0); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("want ErrInvalidValue, got %v", err)
	}
}

func TestNewMatrixHugeDims(t *testing.T) {
	// IPv6-scale index space must construct without allocating dimension-
	// proportional storage: that is the whole point of hypersparse.
	m, err := NewMatrix[uint64](1<<63, 1<<63)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetElement(1<<62, 1<<61, 7); err != nil {
		t.Fatal(err)
	}
	if got := m.NVals(); got != 1 {
		t.Fatalf("NVals = %d, want 1", got)
	}
	v, err := m.ExtractElement(1<<62, 1<<61)
	if err != nil || v != 7 {
		t.Fatalf("ExtractElement = %d, %v", v, err)
	}
}

func TestSetElementAccumulates(t *testing.T) {
	m := MustNewMatrix[int64](10, 10)
	for k := 0; k < 5; k++ {
		if err := m.SetElement(3, 4, 2); err != nil {
			t.Fatal(err)
		}
	}
	v, err := m.ExtractElement(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 10 {
		t.Fatalf("accumulated value = %d, want 10", v)
	}
	if m.NVals() != 1 {
		t.Fatalf("NVals = %d, want 1", m.NVals())
	}
}

func TestSetElementOutOfBounds(t *testing.T) {
	m := MustNewMatrix[int64](4, 4)
	if err := m.SetElement(4, 0, 1); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("row oob: got %v", err)
	}
	if err := m.SetElement(0, 4, 1); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("col oob: got %v", err)
	}
}

func TestAppendTuplesLengthMismatch(t *testing.T) {
	m := MustNewMatrix[int64](4, 4)
	err := m.AppendTuples([]Index{1}, []Index{1, 2}, []int64{1})
	if !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("got %v", err)
	}
}

func TestAppendTuplesRejectsOOBAtomically(t *testing.T) {
	m := MustNewMatrix[int64](4, 4)
	err := m.AppendTuples([]Index{0, 9}, []Index{0, 0}, []int64{1, 1})
	if !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("got %v", err)
	}
	if m.NVals() != 0 {
		t.Fatalf("partial batch applied: NVals = %d", m.NVals())
	}
}

func TestWaitIdempotent(t *testing.T) {
	m := MustNewMatrix[int64](8, 8)
	_ = m.SetElement(1, 1, 1)
	m.Wait()
	before := m.String()
	m.Wait()
	m.Wait()
	if m.String() != before {
		t.Fatalf("Wait not idempotent: %s -> %s", before, m)
	}
	mustInvariants(t, m)
}

func TestPendingThenMergeWithStored(t *testing.T) {
	m := MustNewMatrix[int64](16, 16)
	_ = m.SetElement(2, 2, 1)
	_ = m.SetElement(5, 5, 2)
	m.Wait()
	_ = m.SetElement(2, 2, 10) // collides with stored
	_ = m.SetElement(1, 7, 3)  // new row before existing
	_ = m.SetElement(9, 0, 4)  // new row after existing
	m.Wait()
	mustInvariants(t, m)
	want := map[[2]Index]int64{
		{2, 2}: 11, {5, 5}: 2, {1, 7}: 3, {9, 0}: 4,
	}
	got := denseOf(m)
	if len(got) != len(want) {
		t.Fatalf("entries = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("entry %v = %d, want %d", k, got[k], v)
		}
	}
}

func TestExplicitZeroIsStored(t *testing.T) {
	m := MustNewMatrix[int64](4, 4)
	_ = m.SetElement(1, 1, 0)
	if m.NVals() != 1 {
		t.Fatalf("explicit zero dropped: NVals = %d", m.NVals())
	}
	v, err := m.ExtractElement(1, 1)
	if err != nil || v != 0 {
		t.Fatalf("ExtractElement = %d, %v; want 0, nil", v, err)
	}
	// Values that cancel to zero stay stored, preserving linearity.
	_ = m.SetElement(2, 2, 5)
	_ = m.SetElement(2, 2, -5)
	if m.NVals() != 2 {
		t.Fatalf("cancelled entry dropped: NVals = %d", m.NVals())
	}
}

func TestExtractElementNoValue(t *testing.T) {
	m := MustNewMatrix[int64](4, 4)
	_ = m.SetElement(1, 1, 3)
	if _, err := m.ExtractElement(0, 0); !errors.Is(err, ErrNoValue) {
		t.Fatalf("got %v, want ErrNoValue", err)
	}
	if _, err := m.ExtractElement(1, 2); !errors.Is(err, ErrNoValue) {
		t.Fatalf("same-row absent col: got %v", err)
	}
	if _, err := m.ExtractElement(9, 0); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("oob: got %v", err)
	}
}

func TestClearReleasesEverything(t *testing.T) {
	m := MustNewMatrix[int64](8, 8)
	_ = m.SetElement(1, 1, 1)
	m.Wait()
	_ = m.SetElement(2, 2, 2) // pending at clear time
	m.Clear()
	if m.NVals() != 0 || m.PendingLen() != 0 {
		t.Fatalf("Clear left state: %s", m)
	}
	if m.NRows() != 8 || m.NCols() != 8 {
		t.Fatalf("Clear changed dims: %s", m)
	}
	// Matrix is reusable after Clear.
	_ = m.SetElement(3, 3, 3)
	if m.NVals() != 1 {
		t.Fatalf("NVals after reuse = %d", m.NVals())
	}
}

func TestDupIsDeep(t *testing.T) {
	m := MustNewMatrix[int64](8, 8)
	_ = m.SetElement(1, 1, 1)
	d := m.Dup()
	_ = m.SetElement(1, 1, 100)
	m.Wait()
	v, err := d.ExtractElement(1, 1)
	if err != nil || v != 1 {
		t.Fatalf("dup mutated: %d, %v", v, err)
	}
	_ = d.SetElement(2, 2, 5)
	d.Wait()
	if _, err := m.ExtractElement(2, 2); !errors.Is(err, ErrNoValue) {
		t.Fatalf("original mutated through dup: %v", err)
	}
}

func TestExtractTuplesRowMajorSorted(t *testing.T) {
	m := MustNewMatrix[int64](100, 100)
	// Insert in scrambled order.
	_ = m.SetElement(50, 2, 1)
	_ = m.SetElement(3, 99, 2)
	_ = m.SetElement(3, 7, 3)
	_ = m.SetElement(50, 1, 4)
	rows, cols, vals := m.ExtractTuples()
	if len(rows) != 4 || len(cols) != 4 || len(vals) != 4 {
		t.Fatalf("lengths %d/%d/%d", len(rows), len(cols), len(vals))
	}
	for k := 1; k < len(rows); k++ {
		if rows[k-1] > rows[k] || (rows[k-1] == rows[k] && cols[k-1] >= cols[k]) {
			t.Fatalf("tuples not row-major sorted: %v %v", rows, cols)
		}
	}
}

func TestIterateEarlyStop(t *testing.T) {
	m := MustNewMatrix[int64](10, 10)
	for k := 0; k < 6; k++ {
		_ = m.SetElement(Index(uint64(k)), 0, 1)
	}
	seen := 0
	m.Iterate(func(_, _ Index, _ int64) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Fatalf("early stop visited %d, want 3", seen)
	}
}

func TestBuildRequiresEmpty(t *testing.T) {
	m := MustNewMatrix[int64](4, 4)
	_ = m.SetElement(0, 0, 1)
	err := m.Build([]Index{1}, []Index{1}, []int64{1}, Plus[int64]().Op)
	if !errors.Is(err, ErrOutputNotEmpty) {
		t.Fatalf("got %v", err)
	}
}

func TestBuildCombinesDuplicates(t *testing.T) {
	m := MustNewMatrix[int64](4, 4)
	err := m.Build(
		[]Index{2, 2, 1, 2}, []Index{3, 3, 0, 3},
		[]int64{1, 10, 5, 100}, Plus[int64]().Op)
	if err != nil {
		t.Fatal(err)
	}
	mustInvariants(t, m)
	v, _ := m.ExtractElement(2, 3)
	if v != 111 {
		t.Fatalf("dup combine = %d, want 111", v)
	}
	if m.NVals() != 2 {
		t.Fatalf("NVals = %d, want 2", m.NVals())
	}
}

func TestBuildExtractRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		m := randMatrix(r, 64, 64, 200)
		rows, cols, vals := m.ExtractTuples()
		m2 := MustNewMatrix[int64](64, 64)
		if err := m2.Build(rows, cols, vals, Plus[int64]().Op); err != nil {
			return false
		}
		return Equal(m, m2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitInvariantsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		m := randMatrix(r, 32, 32, 300)
		m.Wait()
		return m.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleavedWaitsEqualSingleWait(t *testing.T) {
	// Splitting a stream across many Waits must produce the same matrix as
	// one big Wait (order-independence of the plus accumulator).
	r := rand.New(rand.NewSource(3))
	type upd struct {
		i, j Index
		v    int64
	}
	var updates []upd
	for k := 0; k < 500; k++ {
		updates = append(updates, upd{Index(r.Uint64() % 40), Index(r.Uint64() % 40), int64(r.Intn(5))})
	}
	a := MustNewMatrix[int64](40, 40)
	b := MustNewMatrix[int64](40, 40)
	for k, u := range updates {
		_ = a.SetElement(u.i, u.j, u.v)
		_ = b.SetElement(u.i, u.j, u.v)
		if k%7 == 0 {
			a.Wait()
		}
	}
	if !Equal(a, b) {
		t.Fatal("interleaved waits diverged from single wait")
	}
}

// TestRadixSortMatchesStableSort holds radixSortPacked (one histogram pass,
// constant bytes skipped) to slices.SortStableFunc by key, on both sides
// of the 128-entry radix threshold and at a level-1 fill. Values are input
// positions, so a reordering of equal keys shows; the duplicate keys then
// go through Wait under a non-commutative accumulator.
func TestRadixSortMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	const fixed = uint64(0x0123456789abcdef)
	keyFuncs := map[string]func() uint64{
		"random":           r.Uint64,
		"every byte equal": func() uint64 { return fixed },
		"one varying byte": func() uint64 { return fixed&^(0xff<<24) | uint64(r.Intn(256))<<24 },
		"duplicates":       func() uint64 { return uint64(r.Intn(7))<<32 | uint64(r.Intn(5)) },
	}
	type pair struct {
		key uint64
		pos int
	}
	for name, next := range keyFuncs {
		for _, n := range []int{128, 129, 20480} {
			keys, pos := make([]uint64, n), make([]int, n)
			want := make([]pair, n)
			andKey, orKey := ^uint64(0), uint64(0)
			for k := range keys {
				keys[k], pos[k] = next(), k
				want[k] = pair{keys[k], k}
				andKey &= keys[k]
				orKey |= keys[k]
			}
			slices.SortStableFunc(want, func(a, b pair) int { return cmp.Compare(a.key, b.key) })
			gotKeys, gotPos := radixSortPacked(slices.Clone(keys), make([]uint64, n), pos, make([]int, n), andKey, orKey)
			for k, w := range want {
				if gotKeys[k] != w.key || gotPos[k] != w.pos {
					t.Fatalf("%s n=%d: entry %d is (%#x, from %d), want (%#x, from %d)",
						name, n, k, gotKeys[k], gotPos[k], w.key, w.pos)
				}
			}
			if name != "duplicates" {
				continue
			}
			m := MustNewMatrix[int64](8, 8)
			m.accum = minus[int64]
			model := make(map[[2]Index]int64)
			for k, key := range keys {
				c := [2]Index{Index(key >> 32), Index(key & 0xffffffff)}
				v := int64(k + 1)
				if err := m.SetElement(c[0], c[1], v); err != nil {
					t.Fatal(err)
				}
				if d, ok := model[c]; ok {
					v = d - v
				}
				model[c] = v
			}
			got := denseOf(m)
			if len(got) != len(model) {
				t.Fatalf("duplicates n=%d: %d cells, model has %d", n, len(got), len(model))
			}
			for c, v := range model {
				if got[c] != v {
					t.Fatalf("duplicates n=%d: cell %v = %d, folding in input order gives %d", n, c, got[c], v)
				}
			}
		}
	}
}

func TestMatrixFromTuples(t *testing.T) {
	m, err := MatrixFromTuples(8, 8,
		[]Index{1, 2}, []Index{3, 4}, []int64{5, 6}, Plus[int64]().Op)
	if err != nil {
		t.Fatal(err)
	}
	if m.NVals() != 2 {
		t.Fatalf("NVals = %d", m.NVals())
	}
}

func TestStringSummary(t *testing.T) {
	m := MustNewMatrix[int64](4, 4)
	_ = m.SetElement(0, 0, 1)
	s := m.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}
