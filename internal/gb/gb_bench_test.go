package gb

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchTuples returns n random tuples over a dim x dim space.
func benchTuples(n int, dim uint64, seed int64) ([]Index, []Index, []uint64) {
	r := rand.New(rand.NewSource(seed))
	rows := make([]Index, n)
	cols := make([]Index, n)
	vals := make([]uint64, n)
	for k := 0; k < n; k++ {
		rows[k] = Index(r.Uint64() % dim)
		cols[k] = Index(r.Uint64() % dim)
		vals[k] = 1
	}
	return rows, cols, vals
}

// BenchmarkWaitRadix measures pending-tuple materialization on the packed
// radix-sort fast path (32-bit indices).
func BenchmarkWaitRadix(b *testing.B) {
	const n = 100_000
	rows, cols, vals := benchTuples(n, 1<<32, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := MustNewMatrix[uint64](1<<32, 1<<32)
		_ = m.AppendTuples(rows, cols, vals)
		m.Wait()
	}
	b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkWaitComparison measures the comparison-sort path (indices
// beyond 32 bits force the generic stable sort).
func BenchmarkWaitComparison(b *testing.B) {
	const n = 100_000
	rows, cols, vals := benchTuples(n, 1<<40, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := MustNewMatrix[uint64](1<<40, 1<<40)
		_ = m.AppendTuples(rows, cols, vals)
		m.Wait()
	}
	b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkEWiseAdd measures the union-merge kernel (the cascade step).
func BenchmarkEWiseAdd(b *testing.B) {
	const n = 100_000
	r1, c1, v1 := benchTuples(n, 1<<32, 3)
	r2, c2, v2 := benchTuples(n, 1<<32, 4)
	x, _ := MatrixFromTuples(1<<32, 1<<32, r1, c1, v1, Plus[uint64]().Op)
	y, _ := MatrixFromTuples(1<<32, 1<<32, r2, c2, v2, Plus[uint64]().Op)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EWiseAdd(x, y, Plus[uint64]().Op); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*2*n/b.Elapsed().Seconds(), "entries/s")
}

// BenchmarkAddAssignCascade measures the cascade step A(i+1) += A(i) at
// the two size ratios the cascade produces: 8:1 (a level half way to the
// next cut, cut ratio 16) and 256:1 (a small level flushed into the top).
// The destination is restored between iterations off the clock with its
// capacity kept, so allocs/op is the kernel's own: zero. Throughput is per
// moved (source) entry, 16 bytes of column id and value each.
func BenchmarkAddAssignCascade(b *testing.B) {
	const nsrc = 1 << 14
	plus := Plus[uint64]().Op
	for _, ratio := range []int{8, 256} {
		b.Run(fmt.Sprintf("%d:1", ratio), func(b *testing.B) {
			r1, c1, v1 := benchTuples(nsrc*ratio, 1<<32, 10)
			r2, c2, v2 := benchTuples(nsrc, 1<<32, 11)
			base, _ := MatrixFromTuples(1<<32, 1<<32, r1, c1, v1, plus)
			src, _ := MatrixFromTuples(1<<32, 1<<32, r2, c2, v2, plus)
			dst := base.Dup()
			if err := AddAssign(dst, src, plus); err != nil { // warm dst's capacity
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(16 * int64(src.NVals()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if dst.rowsBase != nil {
					dst.unslide()
				}
				dst.rows = append(dst.rows[:0], base.rows...)
				dst.ptr = append(dst.ptr[:0], base.ptr...)
				dst.col = append(dst.col[:0], base.col...)
				dst.val = append(dst.val[:0], base.val...)
				b.StartTimer()
				if err := AddAssign(dst, src, plus); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTranspose measures the bucket transpose.
func BenchmarkTranspose(b *testing.B) {
	const n = 100_000
	r1, c1, v1 := benchTuples(n, 1<<32, 8)
	x, _ := MatrixFromTuples(1<<32, 1<<32, r1, c1, v1, Plus[uint64]().Op)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Transpose(x); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "entries/s")
}

// BenchmarkReduceRows measures the row-reduction (degree vector) kernel.
func BenchmarkReduceRows(b *testing.B) {
	const n = 100_000
	r1, c1, v1 := benchTuples(n, 1<<32, 9)
	x, _ := MatrixFromTuples(1<<32, 1<<32, r1, c1, v1, Plus[uint64]().Op)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReduceRows(x, Plus[uint64]()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "entries/s")
}

// BenchmarkReduceCols measures the column reduction: gather, stable radix
// sort by column, fold runs.
func BenchmarkReduceCols(b *testing.B) {
	const n = 100_000
	r1, c1, v1 := benchTuples(n, 1<<32, 9)
	x, _ := MatrixFromTuples(1<<32, 1<<32, r1, c1, v1, Plus[uint64]().Op)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReduceCols(x, Plus[uint64]()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "entries/s")
}

// BenchmarkVecFold measures the streaming union merge over 2 (the tight
// path) and 8 (the scanning path) overlapping sparse vectors.
func BenchmarkVecFold(b *testing.B) {
	const n = 100_000
	for _, k := range []int{2, 8} {
		b.Run(fmt.Sprintf("parts=%d", k), func(b *testing.B) {
			parts := make([]*Vector[uint64], k)
			for p := range parts {
				idx, _, vals := benchTuples(n, 4*n, int64(30+p))
				parts[p] = MustNewVector[uint64](1 << 32)
				for k := range idx {
					if err := parts[p].SetElement(idx[k], vals[k]); err != nil {
						b.Fatal(err)
					}
				}
				parts[p].Wait()
			}
			var visited int
			visit := func(Index, uint64) { visited++ }
			plus := Plus[uint64]().Op
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				VecFold(parts, plus, visit)
			}
			b.ReportMetric(float64(b.N)*float64(k)*n/b.Elapsed().Seconds(), "entries/s")
		})
	}
}
