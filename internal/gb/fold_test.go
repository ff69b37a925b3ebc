package gb

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// foldCase is one arrangement of VecFold inputs; nil entries stay nil.
type foldCase struct {
	name  string
	parts []map[Index]int64
}

// vecOf builds a vector over the full index space from a map.
func vecOf(t *testing.T, m map[Index]int64) *Vector[int64] {
	t.Helper()
	if m == nil {
		return nil
	}
	v := MustNewVector[int64](1 << 63)
	for i, x := range m {
		if err := v.SetElement(i, x); err != nil {
			t.Fatal(err)
		}
	}
	v.Wait()
	return v
}

// randIndexSet draws n distinct indices, half of them at or above 2^32.
func randIndexSet(r *rand.Rand, n int) map[Index]int64 {
	m := make(map[Index]int64, n)
	for len(m) < n {
		i := Index(r.Intn(4 * n))
		if r.Intn(2) == 0 {
			i += 1 << 32
		}
		m[i] = int64(r.Intn(41) - 20)
	}
	return m
}

func foldCases(r *rand.Rand) []foldCase {
	var cases []foldCase
	for _, k := range []int{1, 2, 3, 8} {
		disjoint := make([]map[Index]int64, k)
		identical := make([]map[Index]int64, k)
		interleaved := make([]map[Index]int64, k)
		holes := make([]map[Index]int64, k)
		same := randIndexSet(r, 40)
		for p := 0; p < k; p++ {
			disjoint[p] = map[Index]int64{}
			for i := 0; i < 30; i++ {
				disjoint[p][Index(p)<<40|Index(r.Intn(1000))] = int64(i + 1)
			}
			identical[p] = map[Index]int64{}
			for i, x := range same {
				identical[p][i] = x + int64(p)
			}
			interleaved[p] = randIndexSet(r, 20+r.Intn(200))
			switch p % 3 {
			case 0:
				holes[p] = randIndexSet(r, 50)
			case 1:
				holes[p] = nil
			default:
				holes[p] = map[Index]int64{}
			}
		}
		cases = append(cases,
			foldCase{fmt.Sprintf("parts=%d/disjoint", k), disjoint},
			foldCase{fmt.Sprintf("parts=%d/identical", k), identical},
			foldCase{fmt.Sprintf("parts=%d/interleaved", k), interleaved},
			foldCase{fmt.Sprintf("parts=%d/nil-and-empty", k), holes},
		)
	}
	cases = append(cases,
		foldCase{"no-parts", nil},
		foldCase{"all-nil", []map[Index]int64{nil, nil, nil}},
		// More parts than VecFold's stack array holds: the growth path.
		foldCase{"parts=11", func() []map[Index]int64 {
			ps := make([]map[Index]int64, 11)
			for p := range ps {
				ps[p] = randIndexSet(r, 60)
			}
			return ps
		}()},
	)
	return cases
}

// TestVecFoldMatchesChainAndMap checks the streaming union merge against
// two trivially correct references — a left-to-right VecEWiseAdd chain
// and a map — and that indices arrive strictly ascending. Subtraction is
// not commutative, so the chain comparison also pins the fold order.
func TestVecFoldMatchesChainAndMap(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for _, add := range []struct {
		name string
		op   BinaryOp[int64]
	}{{"plus", Plus[int64]().Op}, {"minus", func(x, y int64) int64 { return x - y }}} {
		for _, c := range foldCases(r) {
			t.Run(add.name+"/"+c.name, func(t *testing.T) {
				parts := make([]*Vector[int64], len(c.parts))
				for p, m := range c.parts {
					parts[p] = vecOf(t, m)
				}
				var gotIdx []Index
				var gotVal []int64
				VecFold(parts, add.op, func(i Index, x int64) {
					if n := len(gotIdx); n > 0 && i <= gotIdx[n-1] {
						t.Fatalf("visit order: %d after %d", i, gotIdx[n-1])
					}
					gotIdx = append(gotIdx, i)
					gotVal = append(gotVal, x)
				})

				var chain *Vector[int64]
				for _, p := range parts {
					switch {
					case p == nil:
					case chain == nil:
						chain = p
					default:
						var err error
						if chain, err = VecEWiseAdd(chain, p, add.op); err != nil {
							t.Fatal(err)
						}
					}
				}
				var wantIdx []Index
				var wantVal []int64
				if chain != nil {
					wantIdx, wantVal = chain.ExtractTuples()
				}
				if !slices.Equal(gotIdx, wantIdx) || !slices.Equal(gotVal, wantVal) {
					t.Fatalf("fold differs from the VecEWiseAdd chain: %d vs %d entries", len(gotIdx), len(wantIdx))
				}

				ref := map[Index]int64{}
				seen := map[Index]bool{}
				for _, m := range c.parts {
					for i, x := range m {
						if seen[i] {
							ref[i] = add.op(ref[i], x)
						} else {
							ref[i], seen[i] = x, true
						}
					}
				}
				if len(ref) != len(gotIdx) {
					t.Fatalf("fold visited %d indices, map holds %d", len(gotIdx), len(ref))
				}
				for k, i := range gotIdx {
					if ref[i] != gotVal[k] {
						t.Fatalf("index %d: fold %d, map %d", i, gotVal[k], ref[i])
					}
				}
			})
		}
	}
}

// TestAllocBudgetVecFold holds the streaming merge to zero allocations for
// the part counts the stack array covers.
func TestAllocBudgetVecFold(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, k := range []int{1, 2, 3, 8} {
		parts := make([]*Vector[int64], k)
		for p := range parts {
			parts[p] = vecOf(t, randIndexSet(r, 500))
		}
		var n int
		var sum int64
		visit := func(_ Index, x int64) { n++; sum += x }
		plus := Plus[int64]().Op
		if allocs := testing.AllocsPerRun(20, func() { VecFold(parts, plus, visit) }); allocs != 0 {
			t.Fatalf("VecFold over %d parts allocates %.1f/op, budget is 0", k, allocs)
		}
	}
}

// stagedColReduce is the column reduction as it was before the radix
// kernel: stage every cell as a tuple, stable comparison sort, fold runs.
// It is the reference for ReduceCols and (over ones) ColDegrees.
func stagedColReduce[T Number](a *Matrix[T], op BinaryOp[T]) *Vector[T] {
	a.Wait()
	var p []vecTuple[T]
	for q := range a.col {
		p = append(p, vecTuple[T]{idx: a.col[q], val: a.val[q]})
	}
	slices.SortStableFunc(p, func(x, y vecTuple[T]) int {
		switch {
		case x.idx < y.idx:
			return -1
		case x.idx > y.idx:
			return 1
		}
		return 0
	})
	v := MustNewVector[T](a.ncols)
	for _, e := range p {
		if n := len(v.idx); n > 0 && v.idx[n-1] == e.idx {
			v.val[n-1] = op(v.val[n-1], e.val)
			continue
		}
		v.idx = append(v.idx, e.idx)
		v.val = append(v.val, e.val)
	}
	return v
}

// TestColumnReductionsMatchStagedReference runs the radix column
// reductions and the structural degree kernels against the old staged
// path and against a reduction of the all-ones matrix, below and above
// the 128-cell insertion/radix switch and with indices past 2^32. first
// and second are the order probe: they give the old answer only if each
// column's values still fold in row-major order.
func TestColumnReductionsMatchStagedReference(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, c := range []struct {
		name  string
		dim   Index
		cells int
		wide  bool // rows and half the columns past 2^32
		radix bool // at least 128 distinct cells: the radix side of the switch
	}{
		{"empty", 64, 0, false, false},
		{"insertion", 64, 100, false, false},
		{"radix", 4096, 20000, false, true},
		{"radix-wide", 1 << 40, 5000, true, true},
		{"one-column", 1, 300, false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := MustNewMatrix[int64](1<<41, c.dim)
			for k := 0; k < c.cells; k++ {
				i := Index(r.Intn(300))
				j := Index(r.Uint64() % uint64(c.dim))
				if c.wide {
					i += 1 << 33
					if k%2 == 0 {
						j %= 50 // some heavy columns beside the wide ones
					}
				}
				if err := a.SetElement(i, j, int64(r.Intn(1000)-500)); err != nil {
					t.Fatal(err)
				}
			}
			if n := a.NVals(); (n >= 128) != c.radix {
				t.Fatalf("%d cells: wrong side of the insertion/radix switch", n)
			}
			for _, m := range []Monoid[int64]{
				Plus[int64](),
				MaxWith[int64](-1 << 62),
				{Op: first[int64], Name: "first"},
				{Op: second[int64], Name: "second"},
			} {
				got, err := ReduceCols(a, m)
				if err != nil {
					t.Fatal(err)
				}
				if want := stagedColReduce(a, m.Op); !VecEqual(got, want) {
					t.Fatalf("ReduceCols(%s) differs from the staged reference", m.Name)
				}
			}

			ones := a.Dup()
			for k := range ones.val {
				ones.val[k] = 1
			}
			gotCols, err := ColDegrees(a)
			if err != nil {
				t.Fatal(err)
			}
			if !VecEqual(gotCols, stagedColReduce(ones, Plus[int64]().Op)) {
				t.Fatal("ColDegrees differs from the staged reduction of ones")
			}
			viaReduce, err := ReduceCols(ones, Plus[int64]())
			if err != nil {
				t.Fatal(err)
			}
			if !VecEqual(gotCols, viaReduce) {
				t.Fatal("ColDegrees differs from ReduceCols(ones)")
			}
			gotRows, err := RowDegrees(a)
			if err != nil {
				t.Fatal(err)
			}
			wantRows, err := ReduceRows(ones, Plus[int64]())
			if err != nil {
				t.Fatal(err)
			}
			if !VecEqual(gotRows, wantRows) {
				t.Fatal("RowDegrees differs from ReduceRows(ones)")
			}
		})
	}
}

// TestVecFoldRangesMatchVecFold cuts every VecFold case into 1, 2, 3 and 8
// ranges with AppendSplit and checks the bounds (ascending from 0 to the
// largest Index, at most the asked-for count of ranges) and that folding
// the ranges one after another visits exactly the sequence one VecFold
// visits, fold order included (minus is not commutative).
func TestVecFoldRangesMatchVecFold(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	minus := func(x, y int64) int64 { return x - y }
	for _, c := range foldCases(r) {
		parts := make([]*Vector[int64], len(c.parts))
		stored := 0
		for p, m := range c.parts {
			parts[p] = vecOf(t, m)
			stored += len(m)
		}
		var wantIdx []Index
		var wantVal []int64
		VecFold(parts, minus, func(i Index, x int64) {
			wantIdx = append(wantIdx, i)
			wantVal = append(wantVal, x)
		})
		for _, n := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("%s/ranges=%d", c.name, n), func(t *testing.T) {
				bounds := AppendSplit(nil, parts, n)
				if len(bounds) < 2 || len(bounds) > n+1 || bounds[0] != 0 || bounds[len(bounds)-1] != ^Index(0) {
					t.Fatalf("bounds %v for %d ranges", bounds, n)
				}
				var gotIdx []Index
				var gotVal []int64
				counted := 0
				for b := range bounds[1:] {
					if bounds[b] >= bounds[b+1] {
						t.Fatalf("bounds not ascending: %v", bounds)
					}
					counted += VecNValsRange(parts, bounds[b], bounds[b+1])
					VecFoldRange(parts, bounds[b], bounds[b+1], minus, func(i Index, x int64) {
						if i < bounds[b] || i >= bounds[b+1] {
							t.Fatalf("range [%d,%d) visited %d", bounds[b], bounds[b+1], i)
						}
						gotIdx = append(gotIdx, i)
						gotVal = append(gotVal, x)
					})
				}
				if !slices.Equal(gotIdx, wantIdx) || !slices.Equal(gotVal, wantVal) {
					t.Fatalf("ranged folds visit %d entries, VecFold %d", len(gotIdx), len(wantIdx))
				}
				if counted != stored {
					t.Fatalf("VecNValsRange sums to %d over the ranges, parts store %d", counted, stored)
				}
			})
		}
	}
}

// TestParallelForCallsEachOnce runs overlapping ParallelFor calls and
// checks that each calls f exactly once per r, whatever the helpers were
// busy with.
func TestParallelForCallsEachOnce(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, n := range []int{0, 1, 2, 3, 8, 100} {
				calls := make([]atomic.Int32, n)
				ParallelFor(n, func(r int) { calls[r].Add(1) })
				for r := range calls {
					if got := calls[r].Load(); got != 1 {
						t.Errorf("n=%d: f(%d) ran %d times", n, r, got)
					}
				}
			}
		}()
	}
	wg.Wait()
}
