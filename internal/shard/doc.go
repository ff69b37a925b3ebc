// Package shard implements the concurrent sharded ingest frontend: one
// logical traffic matrix hash-partitioned across S independent hierarchical
// hypersparse cascades, each owned by a dedicated worker goroutine and fed
// through a bounded batch channel.
//
// This is the single-node analogue of the paper's scaling experiment. The
// paper reaches 75B inserts/second by running ~31,000 shared-nothing
// hierarchical matrix instances across 1,100 servers; the follow-up work
// (arXiv:2108.06650) shows the same shared-nothing composition applies
// *inside* one node across cores. A Group is exactly that composition, with
// per-producer shard buffers so partitioning is amortized and P producers
// never contend on a shared splitter:
//
//	producer 0 ─Append─▶ S local buffers ─┐ (handoff on full buffer)
//	producer 1 ─Append─▶ S local buffers ─┼─▶ chan ─▶ worker 0 ─▶ cascade 0
//	     ┆                                ├─▶ chan ─▶ worker 1 ─▶ cascade 1
//	producer P ─Append─▶ S local buffers ─┘        ┆            ┆
//	                                       ─▶ chan ─▶ worker S-1 ─▶ cascade S-1
//
// Ingest is wait-free between shards: each worker sorts and merges only its
// own buffers inside its own cache-resident level-1 matrix, so aggregate
// update throughput scales with cores until memory bandwidth saturates.
// Each producer either calls Update (which borrows a striped buffer set)
// or owns an Appender (its own P×S buffer row above); a buffer is handed to its
// shard queue when it reaches Config.Handoff entries, so the per-entry
// producer cost is one hash and one append regardless of shard count.
//
// Because GraphBLAS addition is linear and the hash assigns every (row,
// col) cell to exactly one shard, the union of the shard cascades is
// exactly equivalent to one flat accumulation. Analysis queries are pushed
// down to the shards and combined at read time — degrees, sums, and counts
// by monoid merge, top-k and the summary scalars by streaming that merge
// into a bounded heap or a count and a maximum, single cells by routing to
// the one owning shard — so the serial read-time cost is the length of the
// per-shard partials, not the total stored nnz, and only a query that
// returns a vector builds one; Query still materializes the full merged Σ
// when the whole matrix is wanted. Every query observes a batch-atomic snapshot and
// is bit-identical to the unsharded path (properties the package tests
// verify).
//
// Durability: with Config.Durable set, the group owns one CRC32-framed
// write-ahead log (internal/wal). Every accepted batch is appended to it
// whole, once, on the caller's goroutine before any entry is buffered or
// enqueued, with a group-commit fsync interval; the workers only apply.
// The group's session Frontier is its one dedup table, and it is logged
// with the batches. Checkpoint rotates the log at a barrier's cut,
// serializes each shard's cascade into a snapshot (hier.Encode), commits a
// manifest atomically, and deletes the superseded segments; RecoverGroup
// restores manifest + snapshots + the surviving segments after a crash,
// routing each replayed batch to its shards and tolerating a torn final
// frame. See durable.go for the epoch protocol and its crash-window
// guarantees.
//
// Lifecycle: Update/Append may be called from any number of goroutines
// (each Appender from one). Flush drains every producer buffer and queue
// and completes all cascade work (and fsyncs the log of a durable
// group). Close flushes, stops the workers — after a final checkpoint on
// a durable group — and leaves the group readable (queries keep working
// on the drained state); Update and Append after Close return ErrClosed.
package shard
