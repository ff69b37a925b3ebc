package gb

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
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
// moved (source) entry, 24 bytes of row id, column id and value each.
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
			b.SetBytes(24 * int64(src.NVals()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				restore(dst, base)
				b.StartTimer()
				if err := AddAssign(dst, src, plus); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// rmatTuples returns n weight-1 R-MAT edges (Graph500 quadrant
// probabilities 0.57, 0.19, 0.19, 0.05) over a 2^32 x 2^32 space: the
// power-law rows of an IPv4 traffic matrix, mostly one cell each.
func rmatTuples(n int, seed int64) (rows, cols []Index, vals []uint64) {
	r := rand.New(rand.NewSource(seed))
	rows, cols, vals = make([]Index, n), make([]Index, n), make([]uint64, n)
	for k := range rows {
		for bit := 0; bit < 32; bit++ {
			switch u := r.Float64(); {
			case u < 0.57:
			case u < 0.76:
				cols[k] |= 1 << bit
			case u < 0.95:
				rows[k] |= 1 << bit
			default:
				rows[k] |= 1 << bit
				cols[k] |= 1 << bit
			}
		}
		vals[k] = 1
	}
	return rows, cols, vals
}

// BenchmarkPromoteRMAT measures the cascade step A(i+1) += A(i) on R-MAT
// levels: a 256 Ki-entry level into a 2 Mi-entry one, and 20 Ki into
// 128 Ki. Both levels are restored between iterations off the clock with
// their capacity kept, so the merge runs in place and allocates nothing.
// ns/entry is per promoted (source) entry; B/cell is what the merged level
// stores per cell, which is what a merge moves for each cell it writes.
func BenchmarkPromoteRMAT(b *testing.B) {
	plus := Plus[uint64]().Op
	for _, c := range []struct {
		name     string
		src, dst int
	}{{"256Ki_into_2Mi", 256 << 10, 2 << 20}, {"20Ki_into_128Ki", 20 << 10, 128 << 10}} {
		b.Run(c.name, func(b *testing.B) {
			r1, c1, v1 := rmatTuples(c.dst, 1)
			r2, c2, v2 := rmatTuples(c.src, 2)
			base, _ := MatrixFromTuples(1<<32, 1<<32, r1, c1, v1, plus)
			level, _ := MatrixFromTuples(1<<32, 1<<32, r2, c2, v2, plus)
			dst, src := base.Dup(), level.Dup()
			if err := Promote(dst, src, plus); err != nil { // warm dst's capacity
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				restore(dst, base)
				restore(src, level)
				b.StartTimer()
				if err := Promote(dst, src, plus); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(level.NVals()), "ns/entry")
			b.ReportMetric(float64(storedBytes(dst))/float64(dst.NVals()), "B/cell")
		})
	}
}

// restore makes dst hold what from holds, in dst's own arrays.
func restore[T Number](dst, from *Matrix[T]) {
	dst.row = append(dst.row[:0], from.row...)
	dst.col = append(dst.col[:0], from.col...)
	dst.val = append(dst.val[:0], from.val...)
}

// storedBytes is what m's stored arrays hold, in bytes.
func storedBytes[T Number](m *Matrix[T]) int {
	return 16*len(m.col) + int(unsafe.Sizeof(m.val[0]))*len(m.val)
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
