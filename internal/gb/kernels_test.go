package gb

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestApplyPreservesPattern(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	a := randMatrix(r, 32, 32, 100)
	c, err := Apply(a, func(v int64) int64 { return v * 2 })
	if err != nil {
		t.Fatal(err)
	}
	if c.NVals() != a.NVals() {
		t.Fatalf("pattern changed: %d vs %d", c.NVals(), a.NVals())
	}
	da, dc := denseOf(a), denseOf(c)
	for k, v := range da {
		if dc[k] != 2*v {
			t.Fatalf("entry %v: %d != 2*%d", k, dc[k], v)
		}
	}
}

func TestApplyZeroResultKept(t *testing.T) {
	a := MustNewMatrix[int64](4, 4)
	_ = a.SetElement(1, 1, 7)
	c, err := Apply(a, func(int64) int64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if c.NVals() != 1 {
		t.Fatalf("explicit zero dropped by Apply: NVals = %d", c.NVals())
	}
}

func TestScale(t *testing.T) {
	a := MustNewMatrix[float64](4, 4)
	_ = a.SetElement(1, 2, 3)
	c, err := Scale(a, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := c.ExtractElement(1, 2)
	if v != 1.5 {
		t.Fatalf("Scale = %v", v)
	}
}

func TestSelectPredicate(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	a := randMatrix(r, 32, 32, 200)
	c, err := Select(a, func(i, j Index, v int64) bool { return v > 0 })
	if err != nil {
		t.Fatal(err)
	}
	mustInvariants(t, c)
	c.Iterate(func(_, _ Index, v int64) bool {
		if v <= 0 {
			t.Fatalf("select kept %d", v)
		}
		return true
	})
	// Select(true) is identity.
	all, err := Select(a, func(Index, Index, int64) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(all, a) {
		t.Fatal("Select(true) != identity")
	}
	// Select(false) is empty.
	none, err := Select(a, func(Index, Index, int64) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if none.NVals() != 0 {
		t.Fatalf("Select(false) kept %d", none.NVals())
	}
}

func TestTrilTriuPartition(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	a := randMatrix(r, 24, 24, 150)
	lo, err := Tril(a, -1)
	if err != nil {
		t.Fatal(err)
	}
	diagUp, err := Select(a, func(i, j Index, _ int64) bool { return j >= i })
	if err != nil {
		t.Fatal(err)
	}
	// tril(-1) and triu(0) partition the entries exactly.
	if lo.NVals()+diagUp.NVals() != a.NVals() {
		t.Fatalf("partition broken: %d + %d != %d", lo.NVals(), diagUp.NVals(), a.NVals())
	}
	sum, err := EWiseAdd(lo, diagUp, Plus[int64]().Op)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(sum, a) {
		t.Fatal("tril + triu != original")
	}
}

func TestReduceScalarEqualsTupleSum(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	f := func() bool {
		a := randMatrix(r, 32, 32, 200)
		got, err := ReduceScalar(a, Plus[int64]())
		if err != nil {
			return false
		}
		var want int64
		for _, tp := range tuplesOf(a) {
			want += tp.Val
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceScalarEmptyIsIdentity(t *testing.T) {
	a := MustNewMatrix[int64](4, 4)
	got, err := ReduceScalar(a, Plus[int64]())
	if err != nil || got != 0 {
		t.Fatalf("got %d, %v", got, err)
	}
	minMonoid := Monoid[int64]{Op: func(x, y int64) int64 { return min(x, y) }, Identity: 1 << 62}
	gotMin, err := ReduceScalar(a, minMonoid)
	if err != nil || gotMin != 1<<62 {
		t.Fatalf("min identity: got %d, %v", gotMin, err)
	}
}

func TestReduceRowsMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	a := randMatrix(r, 24, 24, 150)
	v, err := ReduceRows(a, Plus[int64]())
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[Index]int64)
	a.Iterate(func(i, _ Index, x int64) bool {
		ref[i] += x
		return true
	})
	if v.NVals() != len(ref) {
		t.Fatalf("NVals = %d, want %d", v.NVals(), len(ref))
	}
	v.Iterate(func(i Index, x int64) bool {
		if ref[i] != x {
			t.Fatalf("row %d sum = %d, want %d", i, x, ref[i])
		}
		return true
	})
}

func TestReduceColsMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	a := randMatrix(r, 24, 24, 150)
	v, err := ReduceCols(a, Plus[int64]())
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[Index]int64)
	a.Iterate(func(_, j Index, x int64) bool {
		ref[j] += x
		return true
	})
	if v.NVals() != len(ref) {
		t.Fatalf("NVals = %d, want %d", v.NVals(), len(ref))
	}
	v.Iterate(func(j Index, x int64) bool {
		if ref[j] != x {
			t.Fatalf("col %d sum = %d, want %d", j, x, ref[j])
		}
		return true
	})
}

func TestReduceRowsColsDuality(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	a := randMatrix(r, 24, 24, 150)
	at, err := Transpose(a)
	if err != nil {
		t.Fatal(err)
	}
	rowsOfA, _ := ReduceRows(a, Plus[int64]())
	colsOfAT, _ := ReduceCols(at, Plus[int64]())
	if !VecEqual(rowsOfA, colsOfAT) {
		t.Fatal("ReduceRows(A) != ReduceCols(Aᵀ)")
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	f := func() bool {
		a := randMatrix(r, 40, 28, 200)
		at, err := Transpose(a)
		if err != nil || at.checkInvariants() != nil {
			return false
		}
		att, err := Transpose(at)
		if err != nil {
			return false
		}
		return Equal(a, att)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeAgainstDense(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	a := randMatrix(r, 16, 24, 100)
	at, err := Transpose(a)
	if err != nil {
		t.Fatal(err)
	}
	if at.NRows() != a.NCols() || at.NCols() != a.NRows() {
		t.Fatalf("transpose dims %dx%d", at.NRows(), at.NCols())
	}
	da, dt := denseOf(a), denseOf(at)
	if len(da) != len(dt) {
		t.Fatalf("nnz changed: %d vs %d", len(da), len(dt))
	}
	for k, v := range da {
		if dt[[2]Index{k[1], k[0]}] != v {
			t.Fatalf("entry %v not transposed", k)
		}
	}
}

// denseMul is the reference O(n^3) multiply for small matrices.
func denseMul(a, b map[[2]Index]int64) map[[2]Index]int64 {
	out := make(map[[2]Index]int64)
	for ka, va := range a {
		for kb, vb := range b {
			if ka[1] == kb[0] {
				out[[2]Index{ka[0], kb[1]}] += va * vb
			}
		}
	}
	return out
}

func TestMxMAgainstDenseReference(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 25; trial++ {
		a := randMatrix(r, 20, 16, 80)
		b := randMatrix(r, 16, 24, 80)
		c, err := MxM(a, b, plusTimes[int64]())
		if err != nil {
			t.Fatal(err)
		}
		mustInvariants(t, c)
		ref := denseMul(denseOf(a), denseOf(b))
		got := denseOf(c)
		if len(got) != len(ref) {
			t.Fatalf("trial %d: nnz %d vs %d", trial, len(got), len(ref))
		}
		for k, v := range ref {
			if got[k] != v {
				t.Fatalf("trial %d: C%v = %d, want %d", trial, k, got[k], v)
			}
		}
	}
}

func TestMxMDimensionMismatch(t *testing.T) {
	a := MustNewMatrix[int64](4, 5)
	b := MustNewMatrix[int64](6, 4)
	if _, err := MxM(a, b, plusTimes[int64]()); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("got %v", err)
	}
}

func TestMxMIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	a := randMatrix(r, 16, 16, 60)
	eye := MustNewMatrix[int64](16, 16)
	for i := Index(0); i < 16; i++ {
		_ = eye.SetElement(i, i, 1)
	}
	c, err := MxM(a, eye, plusTimes[int64]())
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(c, a) {
		t.Fatal("A * I != A")
	}
	c2, err := MxM(eye, a, plusTimes[int64]())
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(c2, a) {
		t.Fatal("I * A != A")
	}
}

func TestVxMAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	a := randMatrix(r, 18, 22, 90)
	x := MustNewVector[int64](18)
	for k := 0; k < 8; k++ {
		_ = x.SetElement(Index(r.Uint64()%18), int64(r.Intn(5)+1))
	}
	y, err := VxM(x, a, plusTimes[int64]())
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[Index]int64)
	hit := make(map[Index]bool)
	a.Iterate(func(i, j Index, v int64) bool {
		if xv, err2 := x.ExtractElement(i); err2 == nil {
			ref[j] += xv * v
			hit[j] = true
		}
		return true
	})
	if y.NVals() != len(hit) {
		t.Fatalf("NVals = %d, want %d", y.NVals(), len(hit))
	}
	y.Iterate(func(j Index, v int64) bool {
		if ref[j] != v {
			t.Fatalf("y(%d) = %d, want %d", j, v, ref[j])
		}
		return true
	})
}

func TestMxMPlusPairCountsOverlap(t *testing.T) {
	// plus.pair over A·Aᵀ counts common neighbors — the triangle-counting
	// building block.
	a := MustNewMatrix[int64](4, 4)
	// path 0-1, 0-2, 1-2 (a triangle), 3 isolated
	for _, e := range [][2]Index{{0, 1}, {1, 0}, {0, 2}, {2, 0}, {1, 2}, {2, 1}} {
		_ = a.SetElement(e[0], e[1], 1)
	}
	at, _ := Transpose(a)
	c, err := MxM(a, at, PlusPair[int64]())
	if err != nil {
		t.Fatal(err)
	}
	v, _ := c.ExtractElement(0, 1) // vertices 0,1 share neighbor 2
	if v != 1 {
		t.Fatalf("common neighbors(0,1) = %d, want 1", v)
	}
}

func TestExtractSubmatrix(t *testing.T) {
	a := MustNewMatrix[int64](10, 10)
	for i := Index(0); i < 10; i++ {
		_ = a.SetElement(i, i, int64(i)+1)
	}
	c, err := Extract(a, []Index{2, 4, 6}, []Index{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if c.NRows() != 3 || c.NCols() != 3 || c.NVals() != 3 {
		t.Fatalf("extract: %s", c)
	}
	for p, want := range []int64{3, 5, 7} {
		v, err := c.ExtractElement(Index(uint64(p)), Index(uint64(p)))
		if err != nil || v != want {
			t.Fatalf("C(%d,%d) = %d, %v; want %d", p, p, v, err, want)
		}
	}
}

func TestExtractAllIsIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	a := randMatrix(r, 32, 32, 100)
	c, err := Extract(a, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(c, a) {
		t.Fatal("Extract(All, All) != identity")
	}
}

func TestExtractOOBIndex(t *testing.T) {
	a := MustNewMatrix[int64](4, 4)
	if _, err := Extract(a, []Index{9}, nil); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("got %v", err)
	}
	if _, err := Extract(a, nil, []Index{4}); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("got %v", err)
	}
}
