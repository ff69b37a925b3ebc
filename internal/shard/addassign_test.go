package shard

import (
	"errors"
	"fmt"
	"testing"

	"hhgb/internal/gb"
)

// closedChild builds a closed group at the given shard count holding
// batches [lo, hi) of a fixed stream: neighbouring children overlap in
// their batch ranges, so cells recur across children.
func closedChild(t *testing.T, shards, lo, hi int) *Group[uint64] {
	t.Helper()
	g, err := NewGroup[uint64](testDim, testDim, testConfig(shards))
	if err != nil {
		t.Fatal(err)
	}
	rows, cols, vals := genBatches(t, hi, 400, 11)
	for k := lo; k < hi; k++ {
		if err := g.Update(rows[k], cols[k], vals[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAddAssignMatchesSum: the shard-by-shard roll-up equals gb.Sum of the
// children's merged matrices — at several shard counts, with cells that
// recur across children, an empty child, a child at another shard count,
// and a parent that already held entries and had cached reductions.
func TestAddAssignMatchesSum(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			children := []*Group[uint64]{
				closedChild(t, shards, 0, 6),
				closedChild(t, shards, 3, 9), // batches 3..5 recur
				closedChild(t, shards, 0, 0), // empty
				closedChild(t, shards%3+1, 8, 12),
			}
			p, err := NewGroup[uint64](testDim, testDim, testConfig(shards))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			feedGroup(t, p, 2, 300, 5)
			var ops []*gb.Matrix[uint64]
			for _, g := range append([]*Group[uint64]{p}, children...) {
				q, err := g.Query()
				if err != nil {
					t.Fatal(err)
				}
				ops = append(ops, q)
			}
			want, err := gb.Sum(ops...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.TopRows(3); err != nil { // prime the cache
				t.Fatal(err)
			}
			if err := p.AddAssign(children...); err != nil {
				t.Fatal(err)
			}
			got, err := p.Query()
			if err != nil {
				t.Fatal(err)
			}
			if !gb.Equal(got, want) {
				t.Fatalf("AddAssign: %d entries, gb.Sum of the children: %d", got.NVals(), want.NVals())
			}
			checkPushdown(t, p, want) // the primed cache was invalidated
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			checkPushdown(t, p, want)
		})
	}
}

// TestAddAssignRefuses: live children and closed parents are errors, and
// so is a dimension mismatch; nothing is merged on any of them.
func TestAddAssignRefuses(t *testing.T) {
	p, err := NewGroup[uint64](testDim, testDim, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewGroup[uint64](testDim, testDim, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if err := p.AddAssign(live); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("adding a live group: %v, want ErrInvalidValue", err)
	}
	small, err := NewGroup[uint64](testDim/2, testDim, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	small.Close()
	if err := p.AddAssign(small); !errors.Is(err, gb.ErrDimensionMismatch) {
		t.Fatalf("adding another shape: %v, want ErrDimensionMismatch", err)
	}
	p.Close()
	if err := p.AddAssign(closedChild(t, 2, 0, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("adding into a closed group: %v, want ErrClosed", err)
	}
	if n, err := p.NVals(); err != nil || n != 0 {
		t.Fatalf("refused additions left %d entries (%v)", n, err)
	}
}

// TestAddAssignDurableFinalCheckpoint: merged entries bypass the WAL, yet
// Close's final checkpoint must snapshot them — a restart finds the sum.
func TestAddAssignDurableFinalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(2)
	cfg.Durable = Durability{Dir: dir}
	p, err := NewGroup[uint64](testDim, testDim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	child := closedChild(t, 2, 0, 4)
	if err := p.AddAssign(child); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	rec, st, err := RecoverGroup[uint64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if st.ReplayedBatches != 0 {
		t.Fatalf("merged entries replayed from the WAL: %d batches", st.ReplayedBatches)
	}
	assertSameState(t, rec, child)
}

// TestClosedGroupCachesScalarsOnly pins what a group retains beside its
// entries: a live group keeps its vector caches warm (the read_only warm
// path), a closed one drops them at Close, serves every vector read by
// recomputing it, and parks no handoff slabs.
func TestClosedGroupCachesScalarsOnly(t *testing.T) {
	g, err := NewGroup[uint64](testDim, testDim, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	feedGroup(t, g, 10, 500, 3)
	if _, err := g.TopRows(5); err != nil {
		t.Fatal(err)
	}
	live, err := g.AggregateAll()
	if err != nil {
		t.Fatal(err)
	}
	slabs, vecs := g.Retained()
	if slabs == 0 || vecs != 3*len(g.workers) {
		t.Fatalf("live group retains %d slabs, %d vectors; want some slabs and 3 vectors per shard", slabs, vecs)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if _, err := g.TopRows(5); err != nil {
			t.Fatal(err)
		}
		if _, err := g.ColDegrees(); err != nil {
			t.Fatal(err)
		}
		agg, err := g.AggregateAll()
		if err != nil {
			t.Fatal(err)
		}
		if agg != live {
			t.Fatalf("closed AggregateAll %+v, live %+v", agg, live)
		}
		if slabs, vecs := g.Retained(); slabs != 0 || vecs != 0 {
			t.Fatalf("closed group retains %d slabs, %d vectors", slabs, vecs)
		}
	}
	before := g.CacheStats()
	if _, err := g.Total(); err != nil {
		t.Fatal(err)
	}
	if got := g.CacheStats().Hits - before.Hits; got != int64(len(g.workers)) {
		t.Fatalf("closed Total hit the scalar cache on %d shards, want %d", got, len(g.workers))
	}
}
