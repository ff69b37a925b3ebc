package gb

import (
	"math/rand"
	"testing"
)

// randMatrix builds a random nrows x ncols matrix with up to maxNNZ entries
// (duplicates combined by +), using the given source for determinism.
func randMatrix(r *rand.Rand, nrows, ncols Index, maxNNZ int) *Matrix[int64] {
	m := MustNewMatrix[int64](nrows, ncols)
	n := r.Intn(maxNNZ + 1)
	for k := 0; k < n; k++ {
		i := Index(r.Uint64() % nrows)
		j := Index(r.Uint64() % ncols)
		v := int64(r.Intn(21) - 10)
		if err := m.SetElement(i, j, v); err != nil {
			panic(err)
		}
	}
	return m
}

// randFloatMatrix is randMatrix for float64 values.
func randFloatMatrix(r *rand.Rand, nrows, ncols Index, maxNNZ int) *Matrix[float64] {
	m := MustNewMatrix[float64](nrows, ncols)
	n := r.Intn(maxNNZ + 1)
	for k := 0; k < n; k++ {
		i := Index(r.Uint64() % nrows)
		j := Index(r.Uint64() % ncols)
		if err := m.SetElement(i, j, float64(r.Intn(9)+1)); err != nil {
			panic(err)
		}
	}
	return m
}

// denseOf expands a small matrix to a dense map for reference computations.
func denseOf[T Number](m *Matrix[T]) map[[2]Index]T {
	d := make(map[[2]Index]T)
	m.Iterate(func(i, j Index, v T) bool {
		d[[2]Index{i, j}] = v
		return true
	})
	return d
}

// mustInvariants fails the test if the DCSR structure is inconsistent.
func mustInvariants[T Number](t *testing.T, m *Matrix[T]) {
	t.Helper()
	m.Wait()
	if err := m.checkInvariants(); err != nil {
		t.Fatalf("invariants: %v (%s)", err, m)
	}
}

// tuplesOf collects all entries as a tuple slice.
func tuplesOf[T Number](m *Matrix[T]) []Tuple[T] {
	var out []Tuple[T]
	m.Iterate(func(i, j Index, v T) bool {
		out = append(out, Tuple[T]{Row: i, Col: j, Val: v})
		return true
	})
	return out
}

// first and second are the positional operators. As a reduction or a
// duplicate combiner they reveal the order the values were folded in.
func first[T Number](x, _ T) T  { return x }
func second[T Number](_, y T) T { return y }
