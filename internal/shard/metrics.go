package shard

import (
	"hhgb/internal/metrics"
)

// Metrics is the shard layer's instrument set. All groups wired to the
// same registry share one set — registration is idempotent, so repeated
// NewMetrics calls against a registry hand back the same series rather
// than colliding. A nil registry yields instruments on the shared discard
// registry: always safe to update, never rendered.
type Metrics struct {
	// BatchesApplied counts ingest batches a shard worker applied to its
	// cascade. Deduplicated retransmissions and batches dropped after a
	// shard error are excluded — this is work done, not work offered.
	BatchesApplied *metrics.Counter
	// EntriesApplied counts the matrix entries inside those batches.
	EntriesApplied *metrics.Counter
	// WALFsync observes the latency of every log fsync: group commits,
	// flush barriers, and the final checkpoint's sync alike.
	WALFsync *metrics.Histogram
	// Checkpoint observes the end-to-end duration of each checkpoint
	// that did work: barrier, log rotation (live path) or sync (Close),
	// per-shard snapshots, manifest commit, prune. Close's no-op
	// checkpoint on a clean group records nothing.
	Checkpoint *metrics.Histogram
	// CacheHits / CacheMisses count pushdown-cache outcomes, one per
	// shard per cached quantity a query touches (the registry-level sum
	// of the per-group CacheStats counters that have existed since the
	// cache landed). CacheInvalidations counts the ingest batches that
	// cleared a non-empty cache — invalidating an already-empty cache is
	// free and not counted, so the rate reads as "warm reductions lost
	// to writes".
	CacheHits          *metrics.Counter
	CacheMisses        *metrics.Counter
	CacheInvalidations *metrics.Counter
}

// NewMetrics registers (or re-fetches) the shard instrument set on reg.
// A nil reg wires the set to the discard registry.
func NewMetrics(reg *metrics.Registry) *Metrics {
	r := metrics.OrDiscard(reg)
	return &Metrics{
		BatchesApplied: r.Counter("hhgb_shard_batches_applied_total",
			"Ingest batches applied by shard workers (dedup and error drops excluded)."),
		EntriesApplied: r.Counter("hhgb_shard_entries_applied_total",
			"Matrix entries applied by shard workers."),
		WALFsync: r.Histogram("hhgb_shard_wal_fsync_seconds",
			"Write-ahead-log fsync latency (group commits, flush barriers, checkpoints).", nil),
		Checkpoint: r.Histogram("hhgb_shard_checkpoint_seconds",
			"Checkpoint duration: barrier, fsync + snapshot per shard, manifest commit, prune.", nil),
		CacheHits: r.Counter("hhgb_shard_cache_hits_total",
			"Pushdown-cache hits: per-shard reductions served from the worker cache."),
		CacheMisses: r.Counter("hhgb_shard_cache_misses_total",
			"Pushdown-cache misses: per-shard reductions recomputed from the cascade."),
		CacheInvalidations: r.Counter("hhgb_shard_cache_invalidations_total",
			"Ingest batches that cleared a non-empty pushdown cache (warm reductions lost to writes)."),
	}
}

// QueueDepth reports the number of batches sitting unprocessed on the
// shard queues right now. It is a sampled gauge — exact only at a
// barrier — meant for backpressure observability, not control flow.
func (g *Group[T]) QueueDepth() int {
	n := 0
	for _, w := range g.workers {
		n += len(w.in)
	}
	return n
}
