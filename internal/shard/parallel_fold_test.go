package shard

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"hhgb/internal/gb"
	"hhgb/internal/stats"
)

// degreeSets returns a group's cached row and column degree partials.
func degreeSets(t *testing.T, g *Group[uint64]) [2][]*gb.Vector[uint64] {
	t.Helper()
	var sets [2][]*gb.Vector[uint64]
	for s, kind := range []vectorKind{rowDegrees, colDegrees} {
		parts, err := g.partials(kind)
		if err != nil {
			t.Fatal(err)
		}
		sets[s] = parts
	}
	return sets
}

// TestCountAndMaxRangesMatchSerialAndMap checks the parallel count-and-max
// fold of both degree families, driven through gb.AppendSplit at 1, 2, 3
// and 8 ranges, against the serial fold and a map reference: on a real
// three-shard group's partials, and on hand-made sets with nil parts, an
// index only one part stores, and parts empty in most ranges.
func TestCountAndMaxRangesMatchSerialAndMap(t *testing.T) {
	vec := func(m map[gb.Index]uint64) *gb.Vector[uint64] {
		if m == nil {
			return nil
		}
		v := gb.MustNewVector[uint64](testDim)
		for i, x := range m {
			if err := v.SetElement(i, x); err != nil {
				t.Fatal(err)
			}
		}
		v.Wait()
		return v
	}
	wide := map[gb.Index]uint64{}
	for i := gb.Index(0); i < 64; i++ {
		wide[i*3] = uint64(i%5 + 1)
	}
	g, err := NewGroup[uint64](testDim, testDim, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	feedGroup(t, g, 16, 400, 41)
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		sets [2][]*gb.Vector[uint64]
	}{
		{"group", degreeSets(t, g)},
		{"hand-made", [2][]*gb.Vector[uint64]{
			// 500 is stored by one part alone; the third part is empty in
			// every range past its one low index.
			{vec(wide), nil, vec(map[gb.Index]uint64{500: 9, 3: 2}), vec(map[gb.Index]uint64{0: 7})},
			{nil, vec(map[gb.Index]uint64{1 << 20: 3}), vec(wide)},
		}},
		{"empty", [2][]*gb.Vector[uint64]{{nil}, nil}},
	}
	for _, c := range cases {
		var want [2]int
		var wantMost [2]uint64
		for s, parts := range c.sets {
			sums := map[gb.Index]uint64{}
			for _, p := range parts {
				if p == nil {
					continue
				}
				p.Iterate(func(i gb.Index, x uint64) bool { sums[i] += x; return true })
			}
			want[s] = len(sums)
			for _, x := range sums {
				wantMost[s] = max(wantMost[s], x)
			}
			n, most := countAndMaxRange(parts, 0, ^gb.Index(0))
			if n != want[s] || most != wantMost[s] {
				t.Fatalf("%s set %d: serial fold %d/%d, map %d/%d", c.name, s, n, most, want[s], wantMost[s])
			}
		}
		for _, n := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("%s/ranges=%d", c.name, n), func(t *testing.T) {
				bounds := [2][]gb.Index{gb.AppendSplit(nil, c.sets[0], n), gb.AppendSplit(nil, c.sets[1], n)}
				counts, most := countAndMaxRanges(c.sets, bounds)
				if counts != want || most != wantMost {
					t.Fatalf("parallel fold %v/%v, map %v/%v", counts, most, want, wantMost)
				}
			})
		}
	}
}

// TestParallelFoldsRaceIngest reads top-k and the summary scalars — large
// enough to take the parallel folds — from two goroutines while a third
// keeps adding fresh cells and flushing the same group: the folds read
// cached partials that ingest invalidates and replaces under them. Every
// answer must be well formed, and a reader must never see the stored cell
// count go back.
func TestParallelFoldsRaceIngest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	const base = gb.ParallelFoldMin + 4096
	g, err := NewGroup[uint64](testDim, testDim, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	batch := func(from, n int) ([]gb.Index, []gb.Index, []uint64) {
		rows := make([]gb.Index, n)
		cols := make([]gb.Index, n)
		vals := make([]uint64, n)
		for k := range rows {
			rows[k] = gb.Index(from + k)
			cols[k] = gb.Index((from+k)*2654435761) % testDim
			vals[k] = uint64(k%5 + 1)
		}
		return rows, cols, vals
	}
	if err := g.Update(batch(0, base)); err != nil {
		t.Fatal(err)
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	if parts := degreeSets(t, g)[0]; gb.FoldRanges(parts) < 2 {
		t.Fatalf("row-degree partials fold on %d ranges: the parallel path is not reached", gb.FoldRanges(parts))
	}
	const rounds = 20
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for i := 0; i < rounds; i++ {
				agg, err := g.AggregateAll()
				if err != nil {
					t.Error(err)
					return
				}
				if agg.NVals < last || agg.Rows != agg.NVals || agg.MaxRowDegree != 1 {
					t.Errorf("summary %+v after %d cells", agg, last)
					return
				}
				last = agg.NVals
				top, err := g.TopRows(10)
				if err != nil {
					t.Error(err)
					return
				}
				if len(top) != 10 || top[0].Value != 5 || !slices.IsSortedFunc(top, func(a, b stats.Top[uint64]) int {
					return cmp.Compare(b.Value, a.Value)
				}) {
					t.Errorf("TopRows(10) = %+v", top)
					return
				}
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		if err := g.Update(batch(base+i*512, 512)); err != nil {
			t.Fatal(err)
		}
		if err := g.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	agg, err := g.AggregateAll()
	if err != nil {
		t.Fatal(err)
	}
	if want := base + rounds*512; agg.NVals != want || agg.Rows != want {
		t.Fatalf("final summary %+v, want %d cells and rows", agg, want)
	}
}
