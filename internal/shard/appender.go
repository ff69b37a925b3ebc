package shard

import "hhgb/internal/gb"

// Appender is a per-producer ingest handle: S shard-local buffers that
// amortize hash-partitioning and queue handoff across many Append calls.
// Where Update pays a stripe lock per batch, a producer goroutine that
// owns an Appender partitions straight into its own buffers and touches a
// shard queue only when a buffer fills (every Handoff entries) — so the
// per-entry ingest cost on the producer is one hash and one append,
// independent of the shard count, and producers never share a splitter.
//
// An Appender is NOT safe for concurrent use: create one per producer
// goroutine with NewAppender. The group's barriers coordinate with all
// appenders internally, so queries, Flush, and Close still observe every
// appended entry (buffered entries are drained at each barrier) and
// snapshots stay batch-atomic: an Append call's batch is either entirely
// included in a snapshot or entirely excluded.
//
// Lifecycle: Append after the group closes returns ErrClosed (the group's
// Close already drained this appender's buffers). Close hands off any
// remaining buffered entries and detaches the appender; it is idempotent,
// and Append after it also returns ErrClosed.
type Appender[T gb.Number] struct {
	g       *Group[T]
	handoff int
	rows    [][]gb.Index // one buffer per shard
	cols    [][]gb.Index
	vals    [][]T
	closed  bool
}

// newAppender builds an unregistered appender with empty buffers. Buffer
// backing arrays are allocated lazily at first use and at each handoff, so
// idle appenders stay cheap.
func newAppender[T gb.Number](g *Group[T]) *Appender[T] {
	k := len(g.workers)
	return &Appender[T]{
		g:       g,
		handoff: g.cfg.Handoff,
		rows:    make([][]gb.Index, k),
		cols:    make([][]gb.Index, k),
		vals:    make([][]T, k),
	}
}

// NewAppender returns a registered per-producer appender. The group drains
// its buffers at every barrier, so the owner only needs to call Close (or
// Flush) to make a final partial buffer visible without waiting for one.
func (g *Group[T]) NewAppender() (*Appender[T], error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.closed {
		return nil, ErrClosed
	}
	return g.register(newAppender(g)), nil
}

// Append hash-partitions one batch into the shard-local buffers, handing
// any buffer that reaches the handoff size to its shard queue (blocking
// only when that queue is full). On a durable group the batch is first
// appended whole to the group's write-ahead log, so it is durable at the
// next sync even while its entries still sit in these buffers. The input
// slices are copied before the call returns. A malformed batch is
// rejected whole, like Update; a failed log append is returned and
// poisons the group.
func (a *Appender[T]) Append(rows, cols []gb.Index, vals []T) error {
	g := a.g
	if err := g.validate(rows, cols, vals); err != nil {
		return err
	}
	if len(rows) == 0 {
		return nil
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.closed || a.closed {
		return ErrClosed
	}
	if err := g.logBatch(rows, cols, vals); err != nil {
		return err
	}
	a.append(rows, cols, vals)
	return nil
}

// append partitions a validated batch into the buffers. It requires g.mu
// held (shared by the owning producer, exclusive by barriers) and the
// appender to be exclusively owned for the duration of the call.
//
// This is the per-entry ingest hot path: buffer backing comes from the
// group's slab free-list (attachSlab), so once the list is warm the loop
// is one hash and three appends per entry with no allocation sites.
//
//hhgb:noalloc
func (a *Appender[T]) append(rows, cols []gb.Index, vals []T) {
	if len(a.rows) == 1 {
		// Single shard: bulk-copy in handoff-sized chunks, no hashing.
		// Chunking (rather than copying the whole batch then checking)
		// bounds every queued buffer by the handoff size, matching the
		// per-entry bound of the multi-shard path.
		for len(rows) > 0 {
			if a.rows[0] == nil {
				a.attachSlab(0)
			}
			n := a.handoff - len(a.rows[0])
			if n > len(rows) {
				n = len(rows)
			}
			a.rows[0] = append(a.rows[0], rows[:n]...)
			a.cols[0] = append(a.cols[0], cols[:n]...)
			a.vals[0] = append(a.vals[0], vals[:n]...)
			if len(a.rows[0]) >= a.handoff {
				a.handoffShard(0)
			}
			rows, cols, vals = rows[n:], cols[n:], vals[n:]
		}
		return
	}
	for i := range rows {
		sh := a.g.shardOf(rows[i], cols[i])
		if a.rows[sh] == nil {
			a.attachSlab(sh)
		}
		a.rows[sh] = append(a.rows[sh], rows[i])
		a.cols[sh] = append(a.cols[sh], cols[i])
		a.vals[sh] = append(a.vals[sh], vals[i])
		if len(a.rows[sh]) >= a.handoff {
			a.handoffShard(sh)
		}
	}
}

// attachSlab backs shard sh's empty buffer with a slab from the group's
// free-list — recycled from a worker when the list is warm, freshly
// allocated only while it is not.
func (a *Appender[T]) attachSlab(sh int) {
	s := a.g.getSlab()
	a.rows[sh], a.cols[sh], a.vals[sh] = s.rows, s.cols, s.vals
}

// handoffShard moves one shard's buffer onto its queue, transferring
// ownership of the backing arrays to the worker (who recycles them onto
// the slab free-list after applying), and leaves an empty buffer behind
// (re-backed from the free-list on next use). Requires g.mu held.
func (a *Appender[T]) handoffShard(sh int) {
	a.g.workers[sh].send(msg[T]{rows: a.rows[sh], cols: a.cols[sh], vals: a.vals[sh]})
	a.rows[sh] = nil
	a.cols[sh] = nil
	a.vals[sh] = nil
}

// flushBuffers hands every non-empty buffer to its shard queue. Requires
// g.mu held (shared by the owner, exclusive by barriers).
func (a *Appender[T]) flushBuffers() {
	for sh := range a.rows {
		if len(a.rows[sh]) > 0 {
			a.handoffShard(sh)
		}
	}
}

// Flush hands the buffered entries to their shard queues without waiting
// for ingest; a subsequent Group.Flush (or any query barrier) makes them
// visible. After the group or the appender is closed it returns ErrClosed
// (the closer already drained the buffers).
func (a *Appender[T]) Flush() error {
	g := a.g
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.closed || a.closed {
		return ErrClosed
	}
	a.flushBuffers()
	return nil
}

// Buffered reports how many entries are currently staged in the local
// buffers (accepted by Append but not yet handed to a shard queue).
func (a *Appender[T]) Buffered() int {
	g := a.g
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for sh := range a.rows {
		n += len(a.rows[sh])
	}
	return n
}

// Close hands off any buffered entries and detaches the appender from the
// group; Append and Flush return ErrClosed afterwards. Closing after the
// group closed just detaches (the group already drained the buffers).
// Close is idempotent and never fails; its error result exists so callers
// can treat appenders uniformly with other closers.
func (a *Appender[T]) Close() error {
	g := a.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if a.closed {
		return nil
	}
	a.closed = true
	if !g.closed {
		a.flushBuffers()
	}
	g.unregister(a)
	return nil
}
