package shard

import (
	"testing"

	"hhgb/internal/gb"
)

// fillGroup streams a deterministic batch and barriers it in.
func fillGroup(t *testing.T, g *Group[uint64], seed uint64, n int) {
	t.Helper()
	rows := make([]gb.Index, n)
	cols := make([]gb.Index, n)
	vals := make([]uint64, n)
	for k := range rows {
		x := seed + uint64(k)
		rows[k] = gb.Index((x * 2654435761) % 1024)
		cols[k] = gb.Index((x*2246822519 + 3) % 1024)
		vals[k] = x%5 + 1
	}
	if err := g.Update(rows, cols, vals); err != nil {
		t.Fatal(err)
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
}

// snapshotAggregates runs every cached pushdown and returns the answers
// for later equality checks.
type aggSnapshot struct {
	nvals int
	total uint64
	rowS  []uint64
	colD  []uint64
}

func takeSnapshot(t *testing.T, g *Group[uint64]) aggSnapshot {
	t.Helper()
	var s aggSnapshot
	var err error
	if s.nvals, err = g.NVals(); err != nil {
		t.Fatal(err)
	}
	if s.total, err = g.Total(); err != nil {
		t.Fatal(err)
	}
	rs, err := g.RowSums()
	if err != nil {
		t.Fatal(err)
	}
	_, s.rowS = rs.ExtractTuples()
	cd, err := g.ColDegrees()
	if err != nil {
		t.Fatal(err)
	}
	_, s.colD = cd.ExtractTuples()
	return s
}

func equalSnap(a, b aggSnapshot) bool {
	if a.nvals != b.nvals || a.total != b.total || len(a.rowS) != len(b.rowS) || len(a.colD) != len(b.colD) {
		return false
	}
	for i := range a.rowS {
		if a.rowS[i] != b.rowS[i] {
			return false
		}
	}
	for i := range a.colD {
		if a.colD[i] != b.colD[i] {
			return false
		}
	}
	return true
}

// TestPushdownCacheHitAndInvalidate proves the satellite contract: on a
// quiescent stream, repeated pushdown queries are pure cache hits (zero
// new misses); an ingest batch invalidates exactly the shards it touched;
// and cached answers are always bit-identical to recomputed ones.
func TestPushdownCacheHitAndInvalidate(t *testing.T) {
	g, err := NewGroup[uint64](1024, 1024, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	fillGroup(t, g, 1, 500)

	// Cold: every per-shard quantity is a miss.
	first := takeSnapshot(t, g)
	cold := g.CacheStats()
	if cold.Hits != 0 || cold.Misses == 0 {
		t.Fatalf("cold stats = %+v, want 0 hits and some misses", cold)
	}

	// Quiescent repeat: identical answers, pure hits.
	second := takeSnapshot(t, g)
	if !equalSnap(first, second) {
		t.Fatalf("cached snapshot differs: %+v vs %+v", first, second)
	}
	warm := g.CacheStats()
	if warm.Misses != cold.Misses {
		t.Fatalf("quiescent queries recomputed: misses %d -> %d", cold.Misses, warm.Misses)
	}
	if warm.Hits <= cold.Hits {
		t.Fatalf("quiescent queries did not hit the cache: %+v", warm)
	}

	// AggregateAll reads four cached quantities and the snapshot primed
	// three of them (not RowDegrees) — so the first call recomputes, after
	// which a repeat is hit-only.
	agg, err := g.AggregateAll()
	if err != nil {
		t.Fatal(err)
	}
	if agg.NVals != first.nvals || agg.Total != first.total {
		t.Fatalf("AggregateAll = %d/%d, want %d/%d", agg.NVals, agg.Total, first.nvals, first.total)
	}
	primed := g.CacheStats()
	if _, err := g.AggregateAll(); err != nil {
		t.Fatal(err)
	}
	afterAgg := g.CacheStats()
	if afterAgg.Misses != primed.Misses {
		t.Fatalf("warm AggregateAll recomputed: misses %d -> %d", primed.Misses, afterAgg.Misses)
	}

	// Ingest invalidates: the next snapshot must recompute (new misses)
	// and reflect the new state.
	fillGroup(t, g, 7777, 300)
	third := takeSnapshot(t, g)
	if equalSnap(first, third) {
		t.Fatal("snapshot unchanged after ingest — stale cache served")
	}
	invalidated := g.CacheStats()
	if invalidated.Misses == afterAgg.Misses {
		t.Fatal("no recomputation after ingest — invalidation failed")
	}

	// And the recomputed answers must equal a fresh group fed the same
	// combined stream (cache transparency end to end).
	ref, err := NewGroup[uint64](1024, 1024, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	fillGroup(t, ref, 1, 500)
	fillGroup(t, ref, 7777, 300)
	want := takeSnapshot(t, ref)
	if !equalSnap(third, want) {
		t.Fatalf("post-invalidation snapshot %+v != reference %+v", third, want)
	}
}

// TestAggregateAllPrimesVectorCache proves the shared fill and its extent:
// one AggregateAll caches exactly what it reads — the cell count, the value
// total and both degree partials — so each of those individual pushdowns is
// then a hit on every shard, while the sum vectors it no longer computes
// are still a miss.
func TestAggregateAllPrimesVectorCache(t *testing.T) {
	const shards = 2
	g, err := NewGroup[uint64](1024, 1024, Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	fillGroup(t, g, 3, 400)
	if _, err := g.AggregateAll(); err != nil {
		t.Fatal(err)
	}
	primed := g.CacheStats()
	if _, err := g.NVals(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Total(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.RowDegrees(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ColDegrees(); err != nil {
		t.Fatal(err)
	}
	after := g.CacheStats()
	if after.Misses != primed.Misses || after.Hits != primed.Hits+4*shards {
		t.Fatalf("pushdowns after AggregateAll: %+v -> %+v, want %d more hits and no miss", primed, after, 4*shards)
	}
	if _, err := g.RowSums(); err != nil {
		t.Fatal(err)
	}
	if sums := g.CacheStats(); sums.Misses != after.Misses+shards {
		t.Fatalf("RowSums after AggregateAll: misses %d -> %d, want one per shard", after.Misses, sums.Misses)
	}
}

// TestCacheSingleShardReturnsCopies guards the aliasing contract: with one
// shard the merged vector IS the shard's partial, so the query layer must
// hand out copies — a caller mutating its result must not poison the
// cache.
func TestCacheSingleShardReturnsCopies(t *testing.T) {
	g, err := NewGroup[uint64](1024, 1024, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	fillGroup(t, g, 11, 200)
	v1, err := g.RowSums()
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := v1.ExtractTuples()
	if len(idx) == 0 {
		t.Fatal("empty row sums")
	}
	if err := v1.SetElement(idx[0], 999999); err != nil { // caller vandalism
		t.Fatal(err)
	}
	v2, err := g.RowSums() // served from cache
	if err != nil {
		t.Fatal(err)
	}
	got, err := v2.ExtractElement(idx[0])
	if err != nil {
		t.Fatal(err)
	}
	if got == 999999 {
		t.Fatal("cache entry aliased to a caller-visible vector")
	}
}
