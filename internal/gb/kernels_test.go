package gb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

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
	rows, cols, vals := a.ExtractTuples()
	at, err := MatrixFromTuples(a.NCols(), a.NRows(), cols, rows, vals, Plus[int64]().Op)
	if err != nil {
		t.Fatal(err)
	}
	rowsOfA, _ := ReduceRows(a, Plus[int64]())
	colsOfAT, _ := ReduceCols(at, Plus[int64]())
	if !VecEqual(rowsOfA, colsOfAT) {
		t.Fatal("ReduceRows(A) != ReduceCols(Aᵀ)")
	}
}
