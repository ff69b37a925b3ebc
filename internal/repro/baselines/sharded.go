package baselines

import (
	"sync/atomic"

	"hhgb/internal/gb"
	"hhgb/internal/hier"
	"hhgb/internal/powerlaw"
	"hhgb/internal/shard"
	"hhgb/internal/stats"
)

// ShardedGraphBLAS is the concurrent ingest frontend as a benchmark
// engine: one logical matrix hash-partitioned across S hierarchical
// cascades, each behind a bounded queue drained by a worker goroutine
// (batches are partitioned into striped producer-local shard buffers, so
// concurrent Ingest calls never contend on a shared splitter). Unlike the
// other engines it is internally parallel, so one instance per node is the
// natural deployment, not one per process; its Ingest is also safe for
// concurrent producers, which the shared-nothing harnesses never need but
// application frontends do. Its analysis queries are pushed down to the
// shard workers and merged at read time, so they run concurrently with
// ingest at result-size serial cost.
type ShardedGraphBLAS struct {
	g      *shard.Group[uint64]
	count  atomic.Int64
	closed atomic.Bool
}

var (
	_ Engine    = (*ShardedGraphBLAS)(nil)
	_ Queryable = (*ShardedGraphBLAS)(nil)
	_ Drainer   = (*ShardedGraphBLAS)(nil)
)

// NewShardedGraphBLAS returns the engine over a dim x dim traffic matrix
// with the given shard count (<= 0 selects GOMAXPROCS). A nil cuts slice
// selects the default 4-level geometric cascade per shard.
func NewShardedGraphBLAS(dim gb.Index, cuts []int, shards int) (*ShardedGraphBLAS, error) {
	cfg := hier.DefaultConfig()
	if cuts != nil {
		cfg = hier.Config{Cuts: cuts}
	}
	g, err := shard.NewGroup[uint64](dim, dim, shard.Config{Shards: shards, Hier: cfg})
	if err != nil {
		return nil, err
	}
	return &ShardedGraphBLAS{g: g}, nil
}

// Name implements Engine.
func (e *ShardedGraphBLAS) Name() string { return "sharded-graphblas" }

// NumShards returns the shard count.
func (e *ShardedGraphBLAS) NumShards() int { return e.g.NumShards() }

// Ingest implements Engine. It is safe for concurrent use: each call
// builds fresh tuple slices (the per-engine reusable buffers the
// single-goroutine engines keep would race here).
func (e *ShardedGraphBLAS) Ingest(edges []Edge) error {
	if e.closed.Load() {
		return errClosed(e.Name())
	}
	rows, cols, vals := powerlaw.ToTuples(edges)
	if err := e.g.Update(rows, cols, vals); err != nil {
		return err
	}
	e.count.Add(int64(len(edges)))
	return nil
}

// Flush implements Engine: it drains every shard queue and completes all
// cascade work, surfacing any asynchronous ingest error.
func (e *ShardedGraphBLAS) Flush() error {
	if e.closed.Load() {
		return errClosed(e.Name())
	}
	return e.g.Flush()
}

// Drain implements Drainer: it blocks until every accepted batch has been
// ingested, without forcing cascade promotion — the async analogue of a
// synchronous engine's Ingest having returned.
func (e *ShardedGraphBLAS) Drain() error {
	if e.closed.Load() {
		return nil // Close already drained
	}
	return e.g.Err()
}

// Count implements Engine.
func (e *ShardedGraphBLAS) Count() int64 { return e.count.Load() }

// Close implements Engine. The engine stays queryable afterwards.
func (e *ShardedGraphBLAS) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	return e.g.Close()
}

// Query implements Queryable: the merged total across shards. Prefer the
// pushdown queries below when the full matrix is not needed.
func (e *ShardedGraphBLAS) Query() (*gb.Matrix[uint64], error) { return e.g.Query() }

// NVals returns the distinct stored entry count: per-shard counts summed,
// no global materialization.
func (e *ShardedGraphBLAS) NVals() (int, error) { return e.g.NVals() }

// Lookup returns one cell's accumulated weight, routed to the single shard
// that owns the cell.
func (e *ShardedGraphBLAS) Lookup(row, col gb.Index) (uint64, bool, error) {
	return e.g.Lookup(row, col)
}

// TopSources returns the k sources with the most total traffic: per-shard
// row sums pushed down to the workers, merged, and heap-selected.
func (e *ShardedGraphBLAS) TopSources(k int) ([]stats.Top[uint64], error) {
	return e.g.TopRows(k)
}

// TopDestinations is TopSources over destinations (column sums).
func (e *ShardedGraphBLAS) TopDestinations(k int) ([]stats.Top[uint64], error) {
	return e.g.TopCols(k)
}

// Stats exposes the merged cascade counters for analysis.
func (e *ShardedGraphBLAS) Stats() hier.Stats { return e.g.Stats() }
