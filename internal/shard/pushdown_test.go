package shard

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"hhgb/internal/gb"
	"hhgb/internal/stats"
)

// feedGroup streams n deterministic batches of the given size into a group.
func feedGroup(t *testing.T, g *Group[uint64], n, size int, seed uint64) {
	t.Helper()
	rows, cols, vals := genBatches(t, n, size, seed)
	for k := range rows {
		if err := g.Update(rows[k], cols[k], vals[k]); err != nil {
			t.Fatal(err)
		}
	}
}

// levelsHeld reports, over all shards, the most cascade levels any one of
// them holds entries in.
func levelsHeld(g *Group[uint64]) int {
	held := make([]int, len(g.workers))
	_ = g.run(func(i int, w *worker[uint64]) {
		for _, n := range w.m.LevelNVals() {
			if n > 0 {
				held[i]++
			}
		}
	})
	return slices.Max(held)
}

// forEachGroupState runs check on a fresh, freshly fed group — so every
// read starts cold — in each cascade shape a read can meet: mid-stream
// with several levels populated (the per-shard step must sum them),
// flushed into the single top level (read in place), and closed (trimmed,
// workers stopped, reads run on the caller). check also gets the
// materialized merged matrix as the reference.
func forEachGroupState(t *testing.T, shards int, seed uint64, check func(t *testing.T, g *Group[uint64], q *gb.Matrix[uint64])) {
	for _, state := range []struct {
		name string
		prep func(t *testing.T, g *Group[uint64])
	}{
		{"unflushed", func(t *testing.T, g *Group[uint64]) {
			// The stream so far goes into the top level, then come two
			// batches small enough to stay in level 1. The first repeats
			// the stream's opening entries, so those cells are stored at
			// two levels and must still count once.
			if err := g.Flush(); err != nil {
				t.Fatal(err)
			}
			feedGroup(t, g, 1, 100, seed)
			feedGroup(t, g, 1, 100, seed+1000)
			if levelsHeld(g) != 2 {
				t.Fatalf("shards hold entries at %d levels, want 2: the state under test is not reached", levelsHeld(g))
			}
		}},
		{"flushed", func(t *testing.T, g *Group[uint64]) {
			if err := g.Flush(); err != nil {
				t.Fatal(err)
			}
			if levelsHeld(g) != 1 {
				t.Fatalf("a flushed shard holds entries at %d levels", levelsHeld(g))
			}
		}},
		{"closed", func(t *testing.T, g *Group[uint64]) {
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(state.name, func(t *testing.T) {
			g, err := NewGroup[uint64](testDim, testDim, testConfig(shards))
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			feedGroup(t, g, 16, 400, seed)
			state.prep(t, g)
			q, err := g.Query()
			if err != nil {
				t.Fatal(err)
			}
			check(t, g, q) // cold: every per-shard partial is computed
			check(t, g, q) // warm: every one is served from the cache
		})
	}
}

// TestPushdownMatchesMaterialized is the read-side correctness keystone:
// every pushdown query — per-shard partials merged or folded at read time
// — must be bit-identical to reducing the materialized merged matrix,
// which the original implementation did (and TestGroupMatchesFlat ties to
// the flat path). Covers NVals, Total, row/col sums, row/col degrees,
// top-k on both axes, and Lookup, across shard counts and cascade shapes.
func TestPushdownMatchesMaterialized(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			forEachGroupState(t, shards, uint64(40+shards), checkPushdown)
		})
	}
}

func checkPushdown(t *testing.T, g *Group[uint64], q *gb.Matrix[uint64]) {
	t.Helper()
	plus := gb.Plus[uint64]()

	nvals, err := g.NVals()
	if err != nil {
		t.Fatal(err)
	}
	if nvals != q.NVals() {
		t.Fatalf("NVals = %d, want %d", nvals, q.NVals())
	}

	total, err := g.Total()
	if err != nil {
		t.Fatal(err)
	}
	wantTotal, err := gb.ReduceScalar(q, plus)
	if err != nil {
		t.Fatal(err)
	}
	if total != wantTotal {
		t.Fatalf("Total = %d, want %d", total, wantTotal)
	}

	vecChecks := []struct {
		name string
		got  func() (*gb.Vector[uint64], error)
		want func() (*gb.Vector[uint64], error)
	}{
		{"RowSums", g.RowSums, func() (*gb.Vector[uint64], error) { return gb.ReduceRows(q, plus) }},
		{"ColSums", g.ColSums, func() (*gb.Vector[uint64], error) { return gb.ReduceCols(q, plus) }},
		{"RowDegrees", g.RowDegrees, func() (*gb.Vector[uint64], error) { return stats.OutDegrees(q) }},
		{"ColDegrees", g.ColDegrees, func() (*gb.Vector[uint64], error) { return stats.InDegrees(q) }},
	}
	for _, vc := range vecChecks {
		got, err := vc.got()
		if err != nil {
			t.Fatal(err)
		}
		want, err := vc.want()
		if err != nil {
			t.Fatal(err)
		}
		if !gb.VecEqual(got, want) {
			t.Fatalf("%s: pushdown vector differs from materialized reduction (nvals %d vs %d)",
				vc.name, got.NVals(), want.NVals())
		}
	}

	for _, axis := range []struct {
		name   string
		top    func(int) ([]stats.Top[uint64], error)
		reduce func(*gb.Matrix[uint64], gb.Monoid[uint64]) (*gb.Vector[uint64], error)
	}{
		{"TopRows", g.TopRows, gb.ReduceRows[uint64]},
		{"TopCols", g.TopCols, gb.ReduceCols[uint64]},
	} {
		vec, err := axis.reduce(q, plus)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1, 5, 1 << 20, math.MaxInt} {
			top, err := axis.top(k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := stats.SelectTopK(vec, k)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(top, want) {
				t.Fatalf("%s(%d) = %d entries %+v, want %d entries %+v", axis.name, k, len(top), head(top), len(want), head(want))
			}
		}
		if _, err := axis.top(-1); !errors.Is(err, gb.ErrInvalidValue) {
			t.Fatalf("%s(-1) = %v, want ErrInvalidValue", axis.name, err)
		}
	}

	// Lookup every stored cell of a row slice plus an absent one.
	count := 0
	q.Iterate(func(i, j gb.Index, v uint64) bool {
		got, ok, err := g.Lookup(i, j)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || got != v {
			t.Fatalf("Lookup(%d,%d) = %d,%v; want %d,true", i, j, got, ok, v)
		}
		count++
		return count < 25
	})
	if _, ok, err := g.Lookup(testDim-1, testDim-1); err != nil || ok {
		t.Fatalf("Lookup(absent) = ok=%v err=%v; want false, nil", ok, err)
	}
	if _, _, err := g.Lookup(testDim, 0); err == nil {
		t.Fatal("Lookup out of bounds should fail")
	}
}

// head is the first few entries of a ranking, for failure messages.
func head(top []stats.Top[uint64]) []stats.Top[uint64] { return top[:min(len(top), 3)] }

// TestAggregateAllMatchesIndividuals checks the single-barrier combined
// snapshot — scalars folded from the per-shard partials, no merged vector
// built — against the individual pushdown queries on a quiescent group:
// the counts against NVals() of the degree vectors, the maxima against
// their max-reduction.
func TestAggregateAllMatchesIndividuals(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			forEachGroupState(t, shards, uint64(70+shards), func(t *testing.T, g *Group[uint64], _ *gb.Matrix[uint64]) {
				t.Helper()
				agg, err := g.AggregateAll()
				if err != nil {
					t.Fatal(err)
				}
				var want Aggregates[uint64]
				if want.NVals, err = g.NVals(); err != nil {
					t.Fatal(err)
				}
				if want.Total, err = g.Total(); err != nil {
					t.Fatal(err)
				}
				for _, d := range []struct {
					vec   func() (*gb.Vector[uint64], error)
					count *int
					most  *uint64
				}{
					{g.RowDegrees, &want.Rows, &want.MaxRowDegree},
					{g.ColDegrees, &want.Cols, &want.MaxColDegree},
				} {
					v, err := d.vec()
					if err != nil {
						t.Fatal(err)
					}
					*d.count = v.NVals()
					if *d.most, err = gb.VecReduce(v, gb.MaxWith[uint64](0)); err != nil {
						t.Fatal(err)
					}
				}
				if agg != want {
					t.Fatalf("AggregateAll = %+v, individual queries give %+v", agg, want)
				}
			})
		})
	}
}

// shardCols returns, for each shard, count columns whose cell in the given
// row the group's partition assigns to that shard.
func shardCols(g *Group[uint64], row gb.Index, count int) [][]gb.Index {
	cols := make([][]gb.Index, len(g.workers))
	for c, missing := gb.Index(0), len(cols)*count; missing > 0; c++ {
		if sh := g.shardOf(row, c); len(cols[sh]) < count {
			cols[sh] = append(cols[sh], c)
			missing--
		}
	}
	return cols
}

// TestTopKAcrossShards pins what makes cross-shard top-k exact. A cell is
// placed by hashing (row, col), so one row's total is spread over every
// shard: a row can lose to a local champion on each shard and still hold
// the largest total, which is why the shards' own top-k lists cannot be
// merged and the whole partials are folded instead. Ties between totals
// assembled from different shards must still go to the lower index.
func TestTopKAcrossShards(t *testing.T) {
	for _, shards := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			g, err := NewGroup[uint64](testDim, testDim, testConfig(shards))
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			const spread, spreadTwin = 500, 400 // rows with a piece on every shard
			var rows, cols []gb.Index
			var vals []uint64
			put := func(r, c gb.Index, v uint64) {
				rows, cols, vals = append(rows, r), append(cols, c), append(vals, v)
			}
			// Each shard gets a champion row worth 10 held there whole;
			// the spread rows hold 7 on every shard: below every shard's
			// best, 7 x shards in total. The twin ties the spread row's
			// total from a different set of cells and has the lower index.
			for sh, cs := range shardCols(g, spread, 1) {
				put(spread, cs[0], 7)
				champion := gb.Index(1000 + sh)
				put(champion, shardCols(g, champion, 1)[sh][0], 10)
			}
			for _, cs := range shardCols(g, spreadTwin, 2) {
				put(spreadTwin, cs[0], 3)
				put(spreadTwin, cs[1], 4)
			}
			if err := g.Update(rows, cols, vals); err != nil {
				t.Fatal(err)
			}
			if err := g.Flush(); err != nil {
				t.Fatal(err)
			}

			total := uint64(7 * shards)
			top, err := g.TopRows(2)
			if err != nil {
				t.Fatal(err)
			}
			want := []stats.Top[uint64]{{Index: spreadTwin, Value: total}, {Index: spread, Value: total}}
			if !slices.Equal(top, want) {
				t.Fatalf("TopRows(2) = %+v, want %+v", top, want)
			}
			if top, err = g.TopRows(1); err != nil || !slices.Equal(top, want[:1]) {
				t.Fatalf("TopRows(1) = %+v, %v; want %+v", top, err, want[:1])
			}
			if top, err = g.TopRows(0); err != nil || len(top) != 0 {
				t.Fatalf("TopRows(0) = %+v, %v; want nothing", top, err)
			}
			// k past the row count returns every row; k = MaxInt must not
			// size anything by k.
			for _, k := range []int{shards + 3, math.MaxInt} {
				top, err := g.TopRows(k)
				if err != nil {
					t.Fatal(err)
				}
				if len(top) != shards+2 || !slices.Equal(top[:2], want) {
					t.Fatalf("TopRows(%d) = %+v, want all %d rows led by %+v", k, top, shards+2, want)
				}
				for _, e := range top[2:] {
					if e.Value != 10 {
						t.Fatalf("TopRows(%d) = %+v, want the champions at 10 after the spread rows", k, top)
					}
				}
			}
		})
	}
}

// TestPushdownOnEmptyGroup checks the zero-traffic edge: empty vectors,
// zero counts, no phantom entries.
func TestPushdownOnEmptyGroup(t *testing.T) {
	g, err := NewGroup[uint64](testDim, testDim, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if n, err := g.NVals(); err != nil || n != 0 {
		t.Fatalf("NVals = %d, %v; want 0, nil", n, err)
	}
	if total, err := g.Total(); err != nil || total != 0 {
		t.Fatalf("Total = %d, %v; want 0, nil", total, err)
	}
	v, err := g.RowSums()
	if err != nil {
		t.Fatal(err)
	}
	if v.NVals() != 0 {
		t.Fatalf("RowSums on empty group has %d entries", v.NVals())
	}
	top, err := g.TopRows(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 0 {
		t.Fatalf("TopRows on empty group returned %d entries", len(top))
	}
}
