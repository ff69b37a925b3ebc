package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hhgb/internal/flight"
	"hhgb/internal/gb"
	"hhgb/internal/hier"
	"hhgb/internal/wal"
)

// ErrClosed is returned by Update, Append, and Appender.Flush after the
// group is closed.
var ErrClosed = errors.New("shard: group is closed")

// ErrNotDurable is returned by Checkpoint and RecoverGroup when the group
// has no durability directory configured.
var ErrNotDurable = errors.New("shard: group has no durability directory")

// DefaultDepth is the default per-shard queue depth in batches. Deep enough
// to decouple producers from a momentarily-cascading shard, shallow enough
// that a Flush barrier stays cheap and queued batches stay cache-warm.
const DefaultDepth = 8

// DefaultHandoff is the default per-shard appender buffer size in entries.
// Large enough that the per-entry partitioning cost (one hash, one append)
// dominates the per-buffer handoff cost (one channel send, three
// allocations), small enough that a buffer still fits in cache while the
// producer fills it.
const DefaultHandoff = 4096

// Config describes a sharded ingest group.
type Config struct {
	// Shards is the number of independent cascades (and worker
	// goroutines). Zero or negative selects runtime.GOMAXPROCS(0).
	Shards int
	// Depth is the per-shard queue depth in batches; zero or negative
	// selects DefaultDepth.
	Depth int
	// Handoff is the per-shard producer buffer size in entries: an
	// appender hands a shard's buffer to the shard queue when it reaches
	// this size (and at every flush or query barrier). Zero or negative
	// selects DefaultHandoff.
	Handoff int
	// Hier configures every shard's cascade. As in hier.New, nil Cuts
	// yields a single flat level.
	Hier hier.Config
	// Durable configures the group's write-ahead log and checkpoints.
	// The zero value keeps the group purely in-memory.
	Durable Durability
	// Metrics receives the shard layer's instruments (batches applied,
	// WAL fsync and checkpoint latency). Nil wires them to the discard
	// registry: updated but never rendered.
	Metrics *Metrics
	// Flight, when non-nil, receives structured ring events from the
	// shard layer (WAL fsyncs, checkpoint phases). Recording is
	// allocation-free; nil disables it at the cost of one branch.
	Flight *flight.Recorder
}

// withDefaults resolves zero values to the documented defaults.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Depth <= 0 {
		c.Depth = DefaultDepth
	}
	if c.Handoff <= 0 {
		c.Handoff = DefaultHandoff
	}
	if c.Durable.Dir != "" && c.Durable.SyncEvery <= 0 {
		c.Durable.SyncEvery = DefaultSyncEvery
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics(nil)
	}
	return c
}

// msg is one unit of work on a shard queue: a buffer to ingest (rows set),
// or a control request to run on the worker's goroutine (do set). Control
// requests double as barriers: the queue is FIFO, so by the time do runs,
// every buffer enqueued before it has been ingested. Every msg is sent with
// worker.send, which counts it in flight until the worker has finished it.
type msg[T gb.Number] struct {
	rows []gb.Index
	cols []gb.Index
	vals []T
	// span, when non-nil, is the sampled frame's latency span; the
	// producer took one reference per partition (Hold), and the worker
	// releases it after attributing shard-side stages (Done).
	span *flight.Span
	do   func(m *hier.Matrix[T])
	done chan struct{}
}

// worker is one shard: a cascade owned by a single goroutine. The pushdown
// result cache (see pushdown.go) lives here too: queries execute on the
// worker goroutine, so cache reads, fills, and the ingest-side invalidation
// all happen on one owner. The one exception is a read of a quiescent shard
// (see holdOne), which runs on the reader's goroutine under mu instead.
type worker[T gb.Number] struct {
	in chan msg[T]
	// queued counts the messages sent on in and not yet finished: zero
	// means nothing is queued or executing on the shard.
	queued atomic.Int64
	// mu is held by the worker for each message it runs, and by a quiescent
	// read for its duration, so the two never overlap.
	mu sync.Mutex

	m   *hier.Matrix[T]
	met *Metrics
	err error // first ingest error; owned by the worker goroutine

	// slabs is the group's slab free-list: the worker recycles each data
	// message's buffers here once Update has copied the entries out, which
	// is what closes the appender → queue → worker → appender loop and
	// makes steady-state ingest allocation-free.
	slabs chan slab[T]

	cache                               shardCache[T]
	cacheHits, cacheMisses, cacheInvals int64

	// closed is set by Group.Close once the goroutine has exited; from then
	// on the cache keeps scalars only (see partials). Written and read under
	// the group's exclusive lock, or on the worker before it exits.
	closed bool
}

func (w *worker[T]) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for msg := range w.in {
		w.mu.Lock()
		if msg.do != nil {
			msg.do(w.m)
		} else {
			w.ingest(msg)
		}
		w.mu.Unlock()
		// The buffers are dead on every path out of ingest — dropped or
		// copied into the cascade's pending staging — so recycle them for
		// the next producer handoff.
		if msg.rows != nil {
			putSlab(w.slabs, slab[T]{rows: msg.rows[:0], cols: msg.cols[:0], vals: msg.vals[:0]})
		}
		// Finished before the barrier is released: a caller that returns
		// from a barrier finds the count settled.
		w.queued.Add(-1)
		if msg.done != nil {
			close(msg.done)
		}
	}
}

// send enqueues one message, counting it in flight before the send so the
// count never trails the queue.
func (w *worker[T]) send(m msg[T]) {
	w.queued.Add(1)
	w.in <- m
}

// ingest applies one data message to the cascade. The batch was logged
// whole when it was accepted, so the worker only applies; the message's
// buffers are consumed (copied out) by the time it returns.
func (w *worker[T]) ingest(msg msg[T]) {
	// Sampled frames attribute their shard-side latency here: queue wait
	// on dequeue, then the apply share below. Every path out releases the
	// partition's span reference; the span methods are nil-safe, so
	// unsampled messages pay one branch.
	defer msg.span.Done()
	var spanMark int64
	if msg.span != nil {
		msg.span.ObserveShardWait()
		spanMark = flight.Now()
	}
	if w.err != nil {
		return // sticky: drop buffers after the first failure
	}
	w.invalidate()
	w.err = w.m.Update(msg.rows, msg.cols, msg.vals)
	if msg.span != nil {
		msg.span.ObserveMax(flight.StageApply, time.Duration(flight.Now()-spanMark))
	}
	if w.err == nil {
		w.met.BatchesApplied.Inc()
		w.met.EntriesApplied.Add(uint64(len(msg.rows)))
	}
}

// invalidate drops the shard's cached reductions before its matrix changes.
// Only clearing a cache that held something counts as an invalidation — the
// common streaming case (batch after batch, nothing cached) stays at one
// struct store.
func (w *worker[T]) invalidate() {
	if w.cache != (shardCache[T]{}) {
		w.cacheInvals++
		w.met.CacheInvalidations.Inc()
	}
	w.cache = shardCache[T]{}
}

// Group is one logical nrows x ncols traffic matrix hash-partitioned across
// independent hierarchical cascades. Update is safe for concurrent use by
// any number of producer goroutines; dedicated producers can amortize the
// partitioning further with a NewAppender handle each. The analysis-time
// queries may run concurrently with ingest and observe a batch-atomic
// merged snapshot: every accepted batch is either entirely included or
// entirely excluded (the query barrier drains all producer buffers and
// excludes in-flight Update/Append calls, see run).
type Group[T gb.Number] struct {
	nrows, ncols gb.Index
	cfg          Config
	workers      []*worker[T]
	wg           sync.WaitGroup

	// slabs and parts are the ingest free-lists (see slab.go): handoff
	// buffers circulating producer → queue → worker → producer, and
	// UpdateSession's per-call partition headers.
	slabs chan slab[T]
	parts chan *partScratch[T]

	// mu is the producer/barrier lock: Update and Appender.Append hold it
	// shared while partitioning into buffers and sending on the shard
	// queues; barriers (run, Close) hold it exclusively while draining
	// every producer buffer and placing their cut, which is what makes
	// snapshots batch-atomic. It also guards closed vs. sends and close.
	mu       sync.RWMutex
	closed   bool
	closeErr error

	// regMu guards the appender registry alone and nests inside mu:
	// registration happens under mu held shared (NewAppender), removal
	// under mu held exclusively (Appender.Close). The barrier drains hold
	// mu exclusively, under which the registry cannot change, so they read
	// it without regMu.
	regMu     sync.Mutex
	appenders []*Appender[T]

	// stripes serve the handle-free Update path: a fixed set of
	// registered appenders, each behind its own mutex, picked round-robin
	// so concurrent callers get producer-local buffers without contending
	// on one shared splitter. Fixed size keeps the registry — and with it
	// every barrier's drain cost — bounded for the life of the group.
	stripes   []*stripe[T]
	stripeIdx atomic.Uint32

	// sessions is the group's exactly-once session frontier (see
	// Frontier) and its only dedup table. UpdateSession accepts a frame
	// inside the shared section that logs and enqueues it, so at every
	// exclusive cut the accepted table is exactly what the log holds.
	sessions Frontier

	// log is the group's write-ahead log; nil when the group is not
	// durable. Set before the group is shared, never replaced.
	log *groupLog[T]

	// codec converts values to and from the 8-byte wire word the WAL and
	// snapshots use; chosen per T (floats bit-exact, integers lossless).
	codec gb.Codec[T]
	// ckptMu serializes checkpoints (and Close's final checkpoint) so
	// epoch numbers advance monotonically and manifest commits never
	// interleave. Lock order: ckptMu before mu.
	ckptMu sync.Mutex
	// epoch is the current checkpoint attempt number; the live WAL
	// segment carries it in its name. Guarded by ckptMu after
	// construction. It advances even when a checkpoint fails, so segment
	// and snapshot names are never reused (reuse could truncate a
	// segment that had already rotated in).
	epoch uint64
	// ckptFailed is true while the latest checkpoint attempt has not
	// fully committed; it blocks the Close-time "nothing changed, skip
	// the final checkpoint" shortcut, because a failed attempt may have
	// reset the log's dirty counter without committing its snapshots.
	// Guarded by ckptMu.
	ckptFailed bool
	// ckptHook, when set (tests only), is called between checkpoint
	// stages: "snapshots" after the log rotated and every shard
	// snapshotted; "manifest" after the manifest commit, before pruning.
	ckptHook func(stage string)
}

// stripe is one Update-path appender and the mutex that hands it to a
// single caller at a time. Stripe mutexes nest inside mu (held shared by
// the caller); barriers hold mu exclusively, which already excludes every
// stripe user, so they drain stripe appenders without touching stripe
// locks.
type stripe[T gb.Number] struct {
	mu sync.Mutex
	a  *Appender[T]
}

// NewGroup returns a running sharded group; its workers idle until the
// first Update. Callers that finish ingesting should Close it. With
// Config.Durable set, the group opens its write-ahead log under the
// durability directory (which must not already hold a durable group —
// restart from existing state with RecoverGroup instead).
func NewGroup[T gb.Number](nrows, ncols gb.Index, cfg Config) (*Group[T], error) {
	cfg = cfg.withDefaults()
	g, err := buildGroup[T](nrows, ncols, cfg, nil)
	if err != nil {
		return nil, err
	}
	if cfg.Durable.Dir != "" {
		if err := g.initDurability(); err != nil {
			return nil, err
		}
	}
	g.start()
	return g, nil
}

// buildGroup constructs a group without starting its workers. ms, when
// non-nil, supplies recovered per-shard matrices (len must equal
// cfg.Shards); nil builds empty cascades. cfg must already be resolved.
func buildGroup[T gb.Number](nrows, ncols gb.Index, cfg Config, ms []*hier.Matrix[T]) (*Group[T], error) {
	g := &Group[T]{
		nrows: nrows, ncols: ncols, cfg: cfg, codec: defaultCodec[T](),
		slabs: newSlabList[T](cfg),
		parts: make(chan *partScratch[T], 4),
	}
	for i := 0; i < cfg.Shards; i++ {
		m := (*hier.Matrix[T])(nil)
		if ms != nil {
			m = ms[i]
		} else {
			var err error
			m, err = hier.New[T](nrows, ncols, cfg.Hier)
			if err != nil {
				return nil, err
			}
		}
		g.workers = append(g.workers, &worker[T]{
			in:    make(chan msg[T], cfg.Depth),
			m:     m,
			met:   cfg.Metrics,
			slabs: g.slabs,
		})
	}
	// 2x GOMAXPROCS stripes: enough that round-robin rarely lands two
	// concurrent Updates on the same stripe, few enough that the
	// registry stays trivially small. Buffers allocate lazily, so idle
	// stripes cost only the struct.
	for i := 0; i < 2*runtime.GOMAXPROCS(0); i++ {
		g.stripes = append(g.stripes, &stripe[T]{a: g.register(newAppender(g))})
	}
	return g, nil
}

// start launches the worker goroutines. Everything the workers read must
// be in place before the call.
func (g *Group[T]) start() {
	g.wg.Add(len(g.workers))
	for _, w := range g.workers {
		go w.loop(&g.wg)
	}
}

// stop closes the shard queues and waits until the workers have drained
// them and exited.
func (g *Group[T]) stop() {
	for _, w := range g.workers {
		close(w.in)
	}
	g.wg.Wait()
}

// NRows returns the row dimension.
func (g *Group[T]) NRows() gb.Index { return g.nrows }

// NCols returns the column dimension.
func (g *Group[T]) NCols() gb.Index { return g.ncols }

// NumShards returns the shard count.
func (g *Group[T]) NumShards() int { return len(g.workers) }

// Durable reports whether the group write-ahead-logs its ingest.
func (g *Group[T]) Durable() bool { return g.cfg.Durable.Dir != "" }

// Levels returns the per-shard cascade depth.
func (g *Group[T]) Levels() int { return g.workers[0].m.NumLevels() }

// shardOf routes an entry to a shard by mixing both coordinates (splitmix64
// final avalanche over src ⊕ rotated dst). Hashing the full (src, dst) pair
// keeps shards balanced even when a single power-law supernode source
// dominates the stream — row-only hashing would funnel that hot row into
// one shard — and assigns every cell to exactly one shard, the property the
// pushdown queries rely on to merge partial results exactly.
func (g *Group[T]) shardOf(row, col gb.Index) int {
	x := uint64(row) ^ (uint64(col)<<32 | uint64(col)>>32)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(len(g.workers)))
}

// validate rejects a malformed batch synchronously and atomically, like
// gb.Matrix.AppendTuples, before any entry is buffered or enqueued.
func (g *Group[T]) validate(rows, cols []gb.Index, vals []T) error {
	if len(rows) != len(cols) || len(rows) != len(vals) {
		return fmt.Errorf("%w: slice lengths %d/%d/%d differ", gb.ErrInvalidValue, len(rows), len(cols), len(vals))
	}
	for k := range rows {
		if rows[k] >= g.nrows || cols[k] >= g.ncols {
			return fmt.Errorf("%w: (%d,%d) outside %d x %d", gb.ErrIndexOutOfBounds, rows[k], cols[k], g.nrows, g.ncols)
		}
	}
	return nil
}

// register adds an appender to the registry so barriers can drain it.
func (g *Group[T]) register(a *Appender[T]) *Appender[T] {
	g.regMu.Lock()
	g.appenders = append(g.appenders, a)
	g.regMu.Unlock()
	return a
}

// unregister removes an appender from the registry.
func (g *Group[T]) unregister(a *Appender[T]) {
	g.regMu.Lock()
	defer g.regMu.Unlock()
	for i, x := range g.appenders {
		if x == a {
			g.appenders[i] = g.appenders[len(g.appenders)-1]
			g.appenders = g.appenders[:len(g.appenders)-1]
			return
		}
	}
}

// drainAppenders hands every registered appender's buffered entries to the
// shard queues. It requires g.mu held exclusively — no Update or Append can
// be mid-flight — so the drain plus whatever the caller enqueues next (a
// barrier, or nothing before Close) forms one atomic cut of the stream.
func (g *Group[T]) drainAppenders() {
	for _, a := range g.appenders {
		a.flushBuffers()
	}
}

// Update hash-partitions one batch of updates into producer-local shard
// buffers (a striped set of internal appenders, so concurrent callers
// never contend on one shared splitter) and hands full buffers to their
// shard queues, blocking only when a destination queue is full. On a
// durable group the batch is first appended whole to the write-ahead log.
// The input slices are copied before the call returns and may be reused
// immediately. Ingest is asynchronous: a nil return means the batch was
// accepted, not ingested; buffered entries become visible at the next
// Flush, Close, or query barrier, and ingest errors surface on Flush,
// Close, Err, and the queries. A failed log append is returned at once and
// poisons the group. Dedicated producer goroutines can skip the stripes
// with NewAppender.
func (g *Group[T]) Update(rows, cols []gb.Index, vals []T) error {
	if err := g.validate(rows, cols, vals); err != nil {
		return err
	}
	if len(rows) == 0 {
		return nil
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.closed {
		return ErrClosed
	}
	if err := g.logBatch(rows, cols, vals); err != nil {
		return err
	}
	s := g.stripes[int(g.stripeIdx.Add(1))%len(g.stripes)]
	s.mu.Lock()
	s.a.append(rows, cols, vals)
	s.mu.Unlock()
	return nil
}

// logBatch appends one unkeyed accepted batch to the log, whole; a no-op
// on an in-memory group. Requires g.mu held shared.
func (g *Group[T]) logBatch(rows, cols []gb.Index, vals []T) error {
	if g.log == nil {
		return nil
	}
	return g.log.append("", 0, rows, cols, vals)
}

// UpdateSession ingests one client insert frame under the exactly-once
// protocol: (session, seq) is the frame's dedup key. A frame at or below
// the accepted frontier returns dup=true without re-applying anything —
// the ack-without-reapply path for retransmissions after a reconnect. A
// fresh frame advances the accepted frontier, is appended whole with its
// key to the log of a durable group, and is hash-partitioned and enqueued
// like Update (skipping the stripe buffers: the frame goes to the shard
// queues at once). The durable frontier, which ResumeSeq reports on
// durable groups, follows at the next Flush, Checkpoint, or Close. A
// session's frames must be ingested in seq order (the network server
// processes a connection sequentially, so a session's accepted seqs always
// form a prefix of the client's stream — the property that makes a single
// high-water mark a complete dedup test). An empty batch still advances
// the frontier and logs its key, so seq holes never form. Sessions longer
// than wal.MaxSessionID, empty sessions, and zero seqs are rejected.
//
// sp is the frame's sampled latency span, nil when unsampled. When it is
// non-nil, the log append is folded into its WAL stage, the handoff
// instant is stamped, and each non-empty partition takes one span
// reference before it is enqueued; the shard workers attribute queue-wait
// and apply time to the span and release the references as they finish.
// The caller keeps its own reference throughout — a dup or error return
// never transfers any.
func (g *Group[T]) UpdateSession(session string, seq uint64, rows, cols []gb.Index, vals []T, sp *flight.Span) (bool, error) {
	if session == "" || seq == 0 {
		return false, fmt.Errorf("%w: session %q seq %d", gb.ErrInvalidValue, session, seq)
	}
	if len(session) > wal.MaxSessionID {
		return false, fmt.Errorf("%w: session id %d bytes > %d", gb.ErrInvalidValue, len(session), wal.MaxSessionID)
	}
	if err := g.validate(rows, cols, vals); err != nil {
		return false, err
	}
	if g.sessions.Dup(session, seq) {
		return true, nil
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.closed {
		return false, ErrClosed
	}
	// Accept tests and advances in one step, so of two concurrent
	// deliveries of one frame (a reconnect racing the old connection's
	// applier) exactly one is taken. Nothing past it can be refused but a
	// failed log append, which poisons the group for good.
	if !g.sessions.Accept(session, seq) {
		return true, nil
	}
	if g.log != nil {
		var mark int64
		if sp != nil {
			mark = flight.Now()
		}
		if err := g.log.append(session, seq, rows, cols, vals); err != nil {
			return false, err
		}
		if sp != nil {
			sp.ObserveMax(flight.StageWAL, time.Duration(flight.Now()-mark))
		}
	}
	if len(rows) > 0 {
		g.enqueue(rows, cols, vals, sp)
	}
	return false, nil
}

// enqueue hash-partitions one batch and hands each non-empty partition to
// its shard queue, blocking only when a queue is full. Partitions go into
// recycled slabs through a recycled header scratch, so the steady-state
// path allocates nothing; each slab's ownership transfers to its worker,
// which recycles it after applying. sp, when non-nil, is stamped at the
// handoff and takes one reference per partition. Requires g.mu held
// shared, or a group no producer can reach yet (recovery's replay).
func (g *Group[T]) enqueue(rows, cols []gb.Index, vals []T, sp *flight.Span) {
	p := g.getParts()
	for k := range rows {
		s := g.shardOf(rows[k], cols[k])
		if p.rows[s] == nil {
			sl := g.getSlab()
			p.rows[s], p.cols[s], p.vals[s] = sl.rows, sl.cols, sl.vals
		}
		p.rows[s] = append(p.rows[s], rows[k])
		p.cols[s] = append(p.cols[s], cols[k])
		p.vals[s] = append(p.vals[s], vals[k])
	}
	sp.MarkHandoff()
	for s := range g.workers {
		if p.rows[s] == nil {
			continue
		}
		// One span reference per partition, taken before the send: the
		// worker's release must never race a reference not yet counted.
		sp.Hold()
		g.workers[s].send(msg[T]{rows: p.rows[s], cols: p.cols[s], vals: p.vals[s], span: sp})
		p.rows[s], p.cols[s], p.vals[s] = nil, nil, nil
	}
	g.putParts(p)
}

// ResumeSeq reports the session's resume frontier (Frontier.Resume): the
// durable frontier on a durable group, the accepted one otherwise.
func (g *Group[T]) ResumeSeq(session string) uint64 {
	return g.sessions.Resume(session, g.Durable())
}

// MintSeq reports the session's seq-minting floor (Frontier.Mint). The
// log is totally ordered and recovery replays one table with it, so on a
// recovered group MintSeq starts equal to ResumeSeq.
func (g *Group[T]) MintSeq(session string) uint64 { return g.sessions.Mint(session) }

// SessionHighs copies the group's accepted session table: per session, the
// highest frame seq the group has taken. The windowed store stashes it
// when it seals a window, after the group's Close has applied every
// accepted frame.
func (g *Group[T]) SessionHighs() map[string]uint64 { return g.sessions.Snapshot() }

// run executes f(i, w) once per shard on the shard's own goroutine (a
// barrier: all batches accepted before the call are ingested first), then
// waits for every shard. Appender buffers are drained and the barrier
// messages enqueued under the write lock, so no Update or Append can
// interleave with them: every accepted batch is either entirely before the
// barrier on all its shards or entirely after, making the observed state
// batch-atomic. After Close the workers are gone and the cascades are
// drained; f then runs inline, still under the write lock so concurrent
// post-Close queries are serialized (the matrices are no longer protected
// by worker goroutines). The per-shard f calls may run concurrently with
// each other before Close; f must only touch shard-local state.
func (g *Group[T]) run(f func(i int, w *worker[T])) error { return g.barrier(nil, f) }

// barrier is run with a cut step: on a live group, cut runs under the
// write lock after the appenders drain and before the barrier messages
// are sent — the one instant at which every accepted batch is before the
// cut on every shard and none is after. A cut error releases the lock and
// returns without placing the barrier.
func (g *Group[T]) barrier(cut func() error, f func(i int, w *worker[T])) error {
	g.mu.Lock()
	if g.closed {
		defer g.mu.Unlock()
		for i, w := range g.workers {
			f(i, w)
		}
		return g.closeErr
	}
	g.drainAppenders()
	if cut != nil {
		if err := cut(); err != nil {
			g.mu.Unlock()
			return err
		}
	}
	dones := make([]chan struct{}, len(g.workers))
	for i, w := range g.workers {
		done := make(chan struct{})
		dones[i] = done
		w.send(msg[T]{do: func(*hier.Matrix[T]) { f(i, w) }, done: done})
	}
	g.mu.Unlock() // the barrier is placed; waiting needs no lock
	for _, done := range dones {
		<-done
	}
	return nil
}

// holdOne places a read cut on a single shard: under g.mu held exclusively
// it hands only that shard's slice of every producer buffer to the shard
// queue, so the latency of a shard-local read (Lookup) is independent of
// the other shards' queue depth. Consistency: all of a batch's entries for
// THIS shard sit in one buffer slice and are handed off together, so any
// state read at the cut includes each accepted batch's contribution to
// this shard either entirely or not at all — exactly the batch atomicity a
// shard-local read can distinguish.
//
// When the group is live and nothing is queued or executing on the shard
// after the handoff, holdOne locks the worker, releases g.mu — producers
// never wait on the read — and returns the worker: the caller reads it on
// its own goroutine, then unlocks w.mu. Whatever is enqueued after the cut
// waits for the read, because the worker takes w.mu for every message.
// Otherwise holdOne returns nil with g.mu still held, and the caller
// finishes the read with runOne. Neither path allocates on its own.
func (g *Group[T]) holdOne(sh int) *worker[T] {
	g.mu.Lock()
	if g.closed {
		return nil
	}
	for _, a := range g.appenders {
		if len(a.rows[sh]) > 0 {
			a.handoffShard(sh)
		}
	}
	w := g.workers[sh]
	if w.queued.Load() != 0 {
		return nil
	}
	w.mu.Lock()
	g.mu.Unlock()
	return w
}

// runOne finishes a read cut that holdOne could not take inline; it
// requires g.mu held exclusively and releases it. On a live group f runs
// on the shard's worker behind a barrier queued at the cut, and runOne
// waits for it. After Close the workers are gone and f runs inline, still
// under g.mu, like run.
func (g *Group[T]) runOne(sh int, f func(w *worker[T])) error {
	if g.closed {
		defer g.mu.Unlock()
		f(g.workers[sh])
		return g.closeErr
	}
	w := g.workers[sh]
	done := make(chan struct{})
	w.send(msg[T]{do: func(*hier.Matrix[T]) { f(w) }, done: done})
	g.mu.Unlock()
	<-done
	return nil
}

// Err reports the first sticky error: a failed log append or fsync, or a
// shard's ingest error. It doubles as a drain barrier: on return, every
// batch accepted before the call has been ingested (unlike Flush it does
// not force the cascades to promote, so it is the cheap way to wait for
// queued work).
func (g *Group[T]) Err() error {
	errs := make([]error, len(g.workers))
	_ = g.run(func(i int, w *worker[T]) { errs[i] = w.err })
	if g.log != nil {
		if err := g.log.failed(); err != nil {
			return err
		}
	}
	return firstError(errs)
}

// Flush drains every producer buffer and shard queue and completes all
// pending cascade work, so a subsequent Query reflects every batch accepted
// before the call. On a durable group it is also a group-commit point: the
// log is fsynced, so every batch accepted before the call survives a crash
// (a cheaper durability point than Checkpoint, which additionally
// snapshots the shards and truncates the log). It returns the first log,
// ingest, or flush error; after Close it reports the Close outcome.
func (g *Group[T]) Flush() error {
	var snap map[string]uint64
	if g.log != nil {
		// Every seq in the snapshot was accepted inside a shared section
		// that also logged it, and the barrier's write lock waits for that
		// section: the sync below covers the seq's record.
		snap = g.sessions.Snapshot()
	}
	errs := make([]error, len(g.workers))
	if err := g.run(func(i int, w *worker[T]) {
		if errs[i] = w.err; errs[i] == nil {
			_, errs[i] = w.m.Flush()
		}
	}); err != nil {
		return err
	}
	if err := firstError(errs); err != nil || g.log == nil {
		return err
	}
	if err := g.log.sync(); err != nil {
		return err
	}
	g.sessions.Commit(snap)
	return nil
}

// Close drains the producer buffers and queues, stops the workers,
// completes all cascade work, and releases everything only ingest used:
// the cascades' staging (hier.Matrix.Trim; a mid-stream Flush keeps it),
// the handoff free-lists, and the cached vectors. The group stays
// readable — queries keep working on the final state — but Update and
// Append return ErrClosed.
// On a durable group Close also takes a final checkpoint (so a later
// RecoverGroup restores from snapshots alone, with no log replay) and
// closes the log. Close is idempotent and returns the first log, ingest,
// flush, or checkpoint error.
func (g *Group[T]) Close() error {
	g.ckptMu.Lock() // before mu: Checkpoint takes ckptMu then mu
	defer g.ckptMu.Unlock()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return g.closeErr
	}
	g.drainAppenders() // before the queues close: buffered entries count
	g.closed = true
	g.stop()
	// Ingest is over for good: stop holding what only ingest uses — the
	// slab and partition free-lists here, the cascades' staging, sort
	// scratch and growth slack below, and any cached vector — so the sealed
	// windows and roll-up parents a windowed store keeps cost their entries
	// and nothing more.
	g.dropFreeLists()
	errs := make([]error, len(g.workers))
	for i, w := range g.workers {
		// A quiescent read placed before Close may still hold the shard;
		// none can start now that closed is set under mu.
		w.mu.Lock()
		w.closed = true
		w.cache.vecs = [4]*gb.Vector[T]{}
		if w.err != nil {
			errs[i] = w.err
		} else if _, errs[i] = w.m.Flush(); errs[i] == nil {
			w.m.Trim()
		}
		w.mu.Unlock()
	}
	g.closeErr = firstError(errs)
	if g.log != nil {
		if g.closeErr == nil {
			// Final checkpoint: the workers are gone, so the shard steps
			// run inline — safe, nothing else touches the matrices while
			// mu is held.
			g.closeErr = g.checkpoint(false)
		}
		if err := g.log.close(); err != nil && g.closeErr == nil {
			g.closeErr = err
		}
		releaseDirLock(g.cfg.Durable.Dir)
	}
	return g.closeErr
}

func firstError(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Query materializes the merged total A = Σ over shards Σ over levels.
// Because GraphBLAS addition is linear, the result is exactly the matrix a
// single unsharded cascade would hold after the same stream. Analyses that
// only need degrees, sums, top-k, counts, or single cells should prefer the
// pushdown queries (RowSums, TopRows, NVals, Lookup, Aggregates, ...),
// which skip this global materialization.
func (g *Group[T]) Query() (*gb.Matrix[T], error) {
	parts := make([]*gb.Matrix[T], len(g.workers))
	errs := make([]error, len(g.workers))
	if err := g.run(func(i int, w *worker[T]) {
		if w.err != nil {
			errs[i] = w.err
			return
		}
		parts[i], errs[i] = w.m.Query()
	}); err != nil {
		return nil, err
	}
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return gb.Sum(parts...)
}

// AddAssign adds closed child groups into g shard by shard — g's shard k ⊕=
// Σ of the children's shard-k matrices, merged on g's own workers with one
// sized gb.Sum — the paper's A(i+1) += A(i) between groups, with no tuples
// in between. The hash routes a cell to the same shard in every group of a
// shard count, so a child with g's count merges shard for shard; one with
// another count (recovered from a run with a different default) is
// re-partitioned first. The children must be closed: their matrices are
// final then, and are read outside their barriers. The merged entries
// bypass g's write-ahead log — on a durable group they count as a change
// that the next Checkpoint, or Close's final checkpoint, snapshots; Flush
// alone does not make them durable.
func (g *Group[T]) AddAssign(children ...*Group[T]) error {
	parts := make([][]*gb.Matrix[T], len(g.workers))
	for _, c := range children {
		if c.nrows != g.nrows || c.ncols != g.ncols {
			return fmt.Errorf("%w: adding %dx%d into %dx%d", gb.ErrDimensionMismatch, c.nrows, c.ncols, g.nrows, g.ncols)
		}
		sig := make([]*gb.Matrix[T], len(c.workers))
		errs := make([]error, len(c.workers))
		if err := c.run(func(i int, w *worker[T]) {
			switch {
			case !w.closed:
				errs[i] = fmt.Errorf("%w: adding a live group", gb.ErrInvalidValue)
			case w.err != nil:
				errs[i] = w.err
			default:
				sig[i], errs[i] = sigma(w.m)
			}
		}); err != nil {
			return err
		}
		if err := firstError(errs); err != nil {
			return err
		}
		if len(sig) != len(g.workers) {
			var err error
			if sig, err = g.repartition(sig); err != nil {
				return err
			}
		}
		for k, m := range sig {
			if m.NVals() > 0 {
				parts[k] = append(parts[k], m)
			}
		}
	}
	errs := make([]error, len(g.workers))
	if err := g.run(func(i int, w *worker[T]) {
		if w.closed {
			errs[i] = ErrClosed
			return
		}
		if w.err != nil || len(parts[i]) == 0 {
			errs[i] = w.err
			return
		}
		sum := parts[i][0]
		if len(parts[i]) > 1 {
			if sum, errs[i] = gb.Sum(parts[i]...); errs[i] != nil {
				return
			}
		}
		w.invalidate()
		if w.err = w.m.UpdateMatrix(sum); w.err != nil {
			errs[i] = w.err
			return
		}
		if g.log != nil {
			g.log.touch() // not logged: only a snapshot can hold it
		}
	}); err != nil {
		return err
	}
	return firstError(errs)
}

// repartition routes the entries of another shard count's per-shard
// matrices through g's cell hash, one matrix per g shard.
func (g *Group[T]) repartition(ms []*gb.Matrix[T]) ([]*gb.Matrix[T], error) {
	rows := make([][]gb.Index, len(g.workers))
	cols := make([][]gb.Index, len(g.workers))
	vals := make([][]T, len(g.workers))
	for _, m := range ms {
		m.Iterate(func(i, j gb.Index, v T) bool {
			k := g.shardOf(i, j)
			rows[k], cols[k], vals[k] = append(rows[k], i), append(cols[k], j), append(vals[k], v)
			return true
		})
	}
	out := make([]*gb.Matrix[T], len(g.workers))
	for k := range out {
		var err error
		if out[k], err = gb.MatrixFromTuples(g.nrows, g.ncols, rows[k], cols[k], vals[k], gb.Plus[T]().Op); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ShardStats snapshots every shard's cascade counters.
func (g *Group[T]) ShardStats() []hier.Stats {
	out := make([]hier.Stats, len(g.workers))
	_ = g.run(func(i int, w *worker[T]) { out[i] = w.m.Stats() })
	return out
}

// Stats merges the per-shard cascade counters into one view: scalar
// counters add, and the per-level promotion counters add elementwise
// (every shard has the same depth by construction).
func (g *Group[T]) Stats() hier.Stats {
	per := g.ShardStats()
	merged := hier.Stats{
		Cascades:        make([]int64, g.Levels()),
		CascadedEntries: make([]int64, g.Levels()),
	}
	for _, s := range per {
		merged.Updates += s.Updates
		merged.Batches += s.Batches
		merged.Queries += s.Queries
		for l := range s.Cascades {
			merged.Cascades[l] += s.Cascades[l]
			merged.CascadedEntries[l] += s.CascadedEntries[l]
		}
	}
	return merged
}

// LevelNVals reports the merged per-level occupancy across shards.
func (g *Group[T]) LevelNVals() []int {
	out := make([]int, g.Levels())
	var mu sync.Mutex
	_ = g.run(func(i int, w *worker[T]) {
		lv := w.m.LevelNVals()
		mu.Lock()
		defer mu.Unlock()
		for l, n := range lv {
			out[l] += n
		}
	})
	return out
}

// LevelCaps reports the per-level capacity the shards' cascades hold,
// summed across shards: entries of DCSR room and entries of pending/sort
// staging (see hier.Matrix.LevelCaps).
func (g *Group[T]) LevelCaps() (stored, staging []int) {
	stored, staging = make([]int, g.Levels()), make([]int, g.Levels())
	var mu sync.Mutex
	_ = g.run(func(i int, w *worker[T]) {
		st, sg := w.m.LevelCaps()
		mu.Lock()
		defer mu.Unlock()
		for l := range st {
			stored[l] += st[l]
			staging[l] += sg[l]
		}
	})
	return stored, staging
}

// Retained reports what the group holds beside its entries: handoff slabs
// parked on the free-list and per-shard vectors in the pushdown cache. A
// closed group holds neither.
func (g *Group[T]) Retained() (slabs, vectors int) {
	counts := make([]int, len(g.workers))
	_ = g.run(func(i int, w *worker[T]) {
		for _, v := range w.cache.vecs {
			if v != nil {
				counts[i]++
			}
		}
	})
	for _, n := range counts {
		vectors += n
	}
	return len(g.slabs), vectors
}
