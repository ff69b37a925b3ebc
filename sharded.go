package hhgb

import (
	"fmt"

	"hhgb/internal/gb"
	"hhgb/internal/hier"
	"hhgb/internal/shard"
)

// ErrClosed is the sentinel returned by every ingest entry point — Append,
// AppendWeighted, Update, UpdateWeighted, Checkpoint, and the Append,
// AppendWeighted, and Flush methods of any Appender — once the Sharded
// matrix (or, for its own methods, the individual Appender) has been
// closed. Queries never return it: a closed matrix stays fully readable.
// Test with errors.Is.
var ErrClosed = shard.ErrClosed

// ErrNotDurable is returned by Checkpoint on a Sharded matrix built
// without WithDurability. Test with errors.Is.
var ErrNotDurable = shard.ErrNotDurable

// Sharded is a concurrent streaming traffic matrix: one logical dim x dim
// matrix hash-partitioned across S independent hierarchical hypersparse
// cascades, each owned by a dedicated worker goroutine behind a bounded
// batch queue. It is the single-node analogue of the paper's shared-nothing
// scaling experiment — aggregate update throughput scales with cores while
// every query remains exactly equivalent to the unsharded TrafficMatrix.
//
// Ingest: Append (and Update, its alias) is safe for concurrent use by any
// number of goroutines; each call partitions into producer-local shard
// buffers (a bounded striped set) that are handed to the shard workers as
// they fill, so producers never contend on a shared splitter.
// A dedicated producer goroutine can hold its own buffers with NewAppender.
// Ingest is asynchronous: a nil return means the batch was accepted.
//
// Queries: analysis calls are pushed down to the shard workers and merged
// at read time (degree and traffic vectors by monoid merge, top-k by
// bounded heap, Lookup by routing to the one owning shard), so their
// serial cost tracks the result size rather than the total stored entries.
// Queries barrier internally and observe a batch-atomic snapshot: each
// accepted batch is either entirely included or entirely excluded.
//
// Durability: with WithDurability(dir) every accepted batch is additionally
// appended whole to one write-ahead log under dir, before any shard sees
// it, with a group-commit sync policy (WithSyncEvery). Flush then
// guarantees every accepted batch survives a crash; Checkpoint compacts
// the log into per-shard snapshots; Recover rebuilds the matrix from the
// directory after a crash or restart.
//
// Lifecycle: NewSharded starts the shard workers. Call Flush to make all
// accepted batches visible to queries mid-stream, and Close when done
// ingesting: Close drains every buffer and queue, stops the workers (on a
// durable matrix, after a final checkpoint), and leaves the matrix fully
// queryable. After Close, Append/Update (and any outstanding Appender's
// Append) fail with ErrClosed. Close is idempotent.
type Sharded struct {
	g   *shard.Group[uint64]
	dim uint64
}

// NewSharded returns an empty sharded dim x dim traffic matrix. With no
// options it uses runtime.GOMAXPROCS(0) shards, each a default 4-level
// geometric cascade; see WithShards, WithQueueDepth, WithHandoff, WithCuts,
// WithGeometricCuts, WithDurability, and WithSyncEvery.
func NewSharded(dim uint64, opts ...Option) (*Sharded, error) {
	o := options{cuts: hier.DefaultConfig().Cuts}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if o.syncEvery != 0 && o.durDir == "" {
		return nil, fmt.Errorf("%w: WithSyncEvery requires WithDurability", gb.ErrInvalidValue)
	}
	if o.windowedOnly() {
		return nil, fmt.Errorf("%w: windowing options apply to NewWindowed, not NewSharded", gb.ErrInvalidValue)
	}
	g, err := shard.NewGroup[uint64](gb.Index(dim), gb.Index(dim), o.shardConfig(o.durDir))
	if err != nil {
		return nil, err
	}
	registerShardedFuncs(g, o.metrics)
	return &Sharded{g: g, dim: dim}, nil
}

// shardConfig is the cascade-group configuration the options describe,
// durable under dir when dir is set. A recovered group takes its shard
// count and cuts from the manifest, so recovery passes neither option.
func (o *options) shardConfig(dir string) shard.Config {
	return shard.Config{
		Shards:  o.shards,
		Depth:   o.queueDepth,
		Handoff: o.handoff,
		Hier:    hier.Config{Cuts: o.cuts},
		Durable: shard.Durability{Dir: dir, SyncEvery: o.syncEvery},
		Metrics: shard.NewMetrics(o.metrics),
		Flight:  o.flight,
	}
}

// registerShardedFuncs registers the flat matrix's sampled queue-depth
// gauge. Only on a real registry: sampling funcs hold the group alive and
// must not pile up on the shared discard registry.
func registerShardedFuncs(g *shard.Group[uint64], m *Metrics) {
	if m == nil {
		return
	}
	m.GaugeFunc("hhgb_shard_queue_depth",
		"Batches pending on the shard ingest queues.",
		func() int64 { return int64(g.QueueDepth()) })
}

// Recover restores a durable Sharded matrix from the directory a previous
// WithDurability matrix wrote: the manifest fixes the dimension, shard
// count, and cascade cuts (so WithShards/WithCuts must not be passed);
// per-shard snapshots are decoded and the surviving write-ahead log
// replayed on top, each batch routed to its shards, tolerating the torn
// final frame a crash mid-append leaves. Every batch accepted before the
// last Flush or Checkpoint is restored bit-identically; later batches come
// back whole as far as the log's group commit reached (see WithSyncEvery),
// and the unsynced tail is lost, exactly as group-commit promises. When
// anything was replayed, the recovered matrix checkpoints immediately
// (compacting the replayed log away); either way it is ready to ingest.
//
// WithQueueDepth, WithHandoff, and WithSyncEvery tune the recovered
// matrix as they would a new one.
//
// The directory has a single owner at a time: Recover refuses a directory
// owned by a live matrix — in this process or any other (two groups over
// one directory would prune each other's logs). The on-disk lock is
// kernel-held (flock on unix) and releases the moment its owner dies, so
// a crashed owner never blocks recovery.
func Recover(dir string, opts ...Option) (*Sharded, error) {
	var o options
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if o.shards != 0 || o.cuts != nil {
		return nil, fmt.Errorf("%w: shard count and cuts are fixed by the recovered manifest", gb.ErrInvalidValue)
	}
	if o.windowedOnly() {
		return nil, fmt.Errorf("%w: windowing options apply to NewWindowed, not Recover", gb.ErrInvalidValue)
	}
	if o.durDir != "" && o.durDir != dir {
		return nil, fmt.Errorf("%w: WithDurability(%q) conflicts with Recover dir %q", gb.ErrInvalidValue, o.durDir, dir)
	}
	g, _, err := shard.RecoverGroup[uint64](o.shardConfig(dir))
	if err != nil {
		return nil, err
	}
	registerShardedFuncs(g, o.metrics)
	return &Sharded{g: g, dim: uint64(g.NRows())}, nil
}

// Checkpoint makes the entire accepted stream durable and compact: a
// batch-atomic barrier at which every shard fsyncs its write-ahead log,
// serializes its cascade into a snapshot file, and truncates the log, with
// the set committed atomically via the manifest. After Checkpoint returns,
// Recover needs only the snapshots — no replay. It fails with ErrClosed
// after Close (which already took a final checkpoint) and with
// ErrNotDurable on a matrix built without WithDurability.
func (s *Sharded) Checkpoint() error { return s.g.Checkpoint() }

// Dim returns the matrix dimension.
func (s *Sharded) Dim() uint64 { return s.dim }

// Durable reports whether the matrix was built with WithDurability (or
// restored by Recover): its ingest is write-ahead-logged and Flush is a
// group-commit point.
func (s *Sharded) Durable() bool { return s.g.Durable() }

// Shards returns the shard count.
func (s *Sharded) Shards() int { return s.g.NumShards() }

// Levels returns the per-shard cascade depth.
func (s *Sharded) Levels() int { return s.g.Levels() }

// Append streams a batch of (src, dst) observations with weight 1 each.
// Safe for concurrent use; the slices are copied before the call returns.
// After Close it returns ErrClosed.
func (s *Sharded) Append(src, dst []uint64) error {
	return s.AppendWeighted(src, dst, unitWeights(len(src)))
}

// AppendWeighted streams a batch of weighted observations. Safe for
// concurrent use; the slices are copied before the call returns. After
// Close it returns ErrClosed.
func (s *Sharded) AppendWeighted(src, dst, weight []uint64) error {
	return s.g.Update(src, dst, weight)
}

// AppendWeightedSession streams one insert frame under the exactly-once
// protocol: (session, seq) is the frame's dedup key, and a frame at or
// below the session's accepted frontier is acknowledged (dup=true)
// without re-applying anything. A session's frames must be appended in
// seq order — the network server's per-connection processing provides
// this; sessions and seqs are its to assign. On a durable matrix the key
// is journaled beside the batch, so dedup survives crash recovery.
func (s *Sharded) AppendWeightedSession(session string, seq uint64, src, dst, weight []uint64) (bool, error) {
	return s.AppendWeightedSessionSpan(session, seq, src, dst, weight, nil)
}

// AppendWeightedSessionSpan is AppendWeightedSession carrying a sampled
// frame's latency span (see the network server's tracing); a nil span —
// the unsampled common case — costs nothing.
func (s *Sharded) AppendWeightedSessionSpan(session string, seq uint64, src, dst, weight []uint64, sp *IngestSpan) (bool, error) {
	return s.g.UpdateSession(session, seq, src, dst, weight, sp)
}

// SessionResume reports a session's resume frontier: the highest insert
// seq a reconnecting client may safely skip (durably applied on a durable
// matrix; accepted otherwise). 0 for unknown sessions.
func (s *Sharded) SessionResume(session string) uint64 { return s.g.ResumeSeq(session) }

// SessionMint reports a session's seq-minting floor: the highest insert
// seq the matrix's dedup state has ever recorded for the session. Always
// >= SessionResume — a resuming producer that lost its retransmit state
// must assign new frames seqs strictly above it, or they would be
// acknowledged as duplicates without being applied. 0 for unknown
// sessions.
func (s *Sharded) SessionMint(session string) uint64 { return s.g.MintSeq(session) }

// Update is Append under its original name; it shares Append's ErrClosed
// semantics.
func (s *Sharded) Update(src, dst []uint64) error { return s.Append(src, dst) }

// UpdateWeighted is AppendWeighted under its original name; it shares
// AppendWeighted's ErrClosed semantics.
func (s *Sharded) UpdateWeighted(src, dst, weight []uint64) error {
	return s.AppendWeighted(src, dst, weight)
}

// Appender is a per-producer ingest handle over a Sharded matrix: it owns
// one set of shard-local buffers, so a dedicated producer goroutine
// partitions straight into them with no pool round-trip and hands a buffer
// to a shard worker only when it fills. Not safe for concurrent use —
// create one per goroutine with Sharded.NewAppender. The matrix's queries,
// Flush, and Close all drain outstanding appender buffers, so appended
// entries are never stranded; Close the appender (or the matrix) when done.
type Appender struct {
	a *shard.Appender[uint64]
}

// NewAppender returns a new per-producer appender. It fails with ErrClosed
// after the matrix is closed.
func (s *Sharded) NewAppender() (*Appender, error) {
	a, err := s.g.NewAppender()
	if err != nil {
		return nil, err
	}
	return &Appender{a: a}, nil
}

// Append streams a batch of (src, dst) observations with weight 1 each
// into the producer-local buffers. After the appender or its matrix is
// closed it returns ErrClosed.
func (a *Appender) Append(src, dst []uint64) error {
	return a.AppendWeighted(src, dst, unitWeights(len(src)))
}

// AppendWeighted streams a batch of weighted observations into the
// producer-local buffers. After the appender or its matrix is closed it
// returns ErrClosed.
func (a *Appender) AppendWeighted(src, dst, weight []uint64) error {
	return a.a.Append(src, dst, weight)
}

// Buffered reports how many accepted entries are still staged in this
// appender's local buffers (not yet handed to a shard worker).
func (a *Appender) Buffered() int { return a.a.Buffered() }

// Flush hands the buffered entries to the shard workers without waiting
// for ingest; the matrix's Flush (or any query) then makes them visible.
// After the appender or its matrix is closed it returns ErrClosed (the
// closer already drained the buffers — appended entries are never lost).
func (a *Appender) Flush() error { return a.a.Flush() }

// Close hands off any buffered entries and detaches the appender; further
// Append, AppendWeighted, and Flush calls return ErrClosed. Close is
// idempotent and safe after the matrix itself closed.
func (a *Appender) Close() error { return a.a.Close() }

// Flush drains every producer buffer and shard queue and completes all
// pending cascade work, surfacing any asynchronous ingest error. On a
// durable matrix it is also a group-commit point: every batch accepted
// before the call is fsynced and survives a crash.
func (s *Sharded) Flush() error { return s.g.Flush() }

// Close stops the ingest workers after draining the producer buffers and
// queues; on a durable matrix it then takes a final checkpoint, so a later
// Recover restores from snapshots alone. The matrix stays queryable;
// Append/Update after Close fail with ErrClosed. Close is idempotent.
func (s *Sharded) Close() error { return s.g.Close() }

// Err reports the first asynchronous ingest error, if any shard failed.
func (s *Sharded) Err() error { return s.g.Err() }

// Entries returns the number of distinct (src, dst) pairs accumulated:
// the per-shard counts, summed (each pair lives on exactly one shard).
func (s *Sharded) Entries() (int, error) { return s.g.NVals() }

// Do materializes the merged matrix and visits every entry in row-major
// order, stopping early if f returns false. This is the one query that
// genuinely needs the full Σ materialization.
func (s *Sharded) Do(f func(src, dst, packets uint64) bool) error {
	q, err := s.g.Query()
	if err != nil {
		return err
	}
	q.Iterate(func(i, j gb.Index, v uint64) bool {
		return f(uint64(i), uint64(j), v)
	})
	return nil
}

// Lookup returns the accumulated weight for one (src, dst) pair and
// whether any traffic was recorded for it. The pair lives on exactly one
// shard, so the lookup is pushed down to that shard alone — no merged
// matrix is ever built.
func (s *Sharded) Lookup(src, dst uint64) (uint64, bool, error) {
	return s.g.Lookup(gb.Index(src), gb.Index(dst))
}

// TopSources returns the k sources with the most total traffic. Per-shard
// traffic vectors are computed on the shard workers and merged at read
// time; the result is identical to the unsharded TrafficMatrix's.
func (s *Sharded) TopSources(k int) ([]Ranked, error) {
	return rankedFrom(s.g.TopRows(k))
}

// TopDestinations returns the k destinations with the most total traffic,
// merged across shards like TopSources.
func (s *Sharded) TopDestinations(k int) ([]Ranked, error) {
	return rankedFrom(s.g.TopCols(k))
}

// Summary computes the aggregate statistics of the merged matrix in a
// single batch-atomic barrier: every field describes the same instant of
// the stream, and all reductions run shard-local before a result-sized
// merge.
func (s *Sharded) Summary() (Summary, error) {
	agg, err := s.g.AggregateAll()
	if err != nil {
		return Summary{}, err
	}
	return Summary{
		Entries:      agg.NVals,
		Sources:      agg.Rows,
		Destinations: agg.Cols,
		TotalPackets: agg.Total,
		MaxOutDegree: agg.MaxRowDegree,
		MaxInDegree:  agg.MaxColDegree,
	}, nil
}

// Stats returns the cumulative ingest counters merged across shards:
// scalar counters add, per-level promotion counters add elementwise.
func (s *Sharded) Stats() CascadeStats { return cascadeStatsOf(s.g.Stats()) }

// ShardStats reports every shard's own cascade counters, for inspecting
// partition balance.
func (s *Sharded) ShardStats() []CascadeStats {
	per := s.g.ShardStats()
	out := make([]CascadeStats, len(per))
	for i, st := range per {
		out[i] = cascadeStatsOf(st)
	}
	return out
}
