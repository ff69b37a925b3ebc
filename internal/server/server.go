// Package server is the network ingest frontend: a TCP listener
// (optionally TLS) that speaks the internal/proto wire protocol in front
// of one hhgb.Sharded matrix — or one hhgb.Windowed temporal store, which
// additionally serves timestamped inserts, event-time range queries, and
// pushed per-window seal summaries (Subscribe) — turning the in-process
// concurrent ingest path into a service remote producers stream into
// (the deployment shape of RedisGraph's protocol frontend and the MIT
// real-time traffic pipeline).
//
// # Per-connection pipeline
//
// Each accepted connection runs two goroutines wired by a bounded queue:
//
//	reader ──▶ apply queue (Config.QueueDepth frames) ──▶ applier ──▶ session dedup ──▶ log ──▶ shard queues
//
// The reader decodes frames and enqueues requests; the applier executes
// them in order — each insert frame is checked against its session's
// frontier, appended whole to the log of a durable matrix, and
// partitioned straight into the shard queues, queries and
// flushes run the facade's barrier path — and writes the responses. A
// query that arrives while nothing is queued or executing on the
// connection skips the queue: the reader serves it and writes its response
// itself, saving a goroutine hop each way. Per-connection program order is
// therefore preserved: a Lookup after an Insert on the same connection —
// acked or only pipelined — observes that insert.
//
// # Backpressure and overload
//
// Two mechanisms bound the server's memory, one blocking and one explicit:
//
//   - The apply queue is bounded. When a connection's applier falls behind
//     (its shard queues are full, a barrier is running), the reader blocks
//     enqueueing, stops reading, and TCP backpressure reaches the client —
//     no data is dropped, the pipe just fills.
//   - The aggregate entry budget (Config.MaxInFlight, summed over all
//     connections' decoded-but-unapplied inserts) bounds what the queues
//     can hold across every connection. An Insert that would exceed it is
//     dropped and answered immediately with an Error frame
//     (proto.ErrCodeOverload) from the reader — overtaking queued
//     responses, so the client learns it outran the server while its
//     earlier frames are still draining. Overloaded inserts are NOT
//     applied; the client decides whether to back off and retry.
//
// # Ack semantics and exactly-once sessions
//
// Ack(Insert) means accepted: validated and handed to the matrix's ingest
// pipeline. It does NOT mean applied or durable. Ack(Flush) means every
// insert acked before it on any connection is applied and — on a durable
// matrix — fsynced (hhgb's group-commit point). Ack(Checkpoint) adds
// snapshot compaction. A kill -9 after Ack(Flush) therefore loses nothing
// that was flush-acked; inserts acked after the last Flush recover whole,
// as far as the log's group commit reached.
//
// Every connection is an exactly-once session: the Hello carries a
// client-chosen session identifier (an empty one is refused as
// malformed), each insert frame's seq becomes the (session, seq) dedup
// key, the Welcome answers with the session's resume frontier (highest
// durably-applied seq on a durable matrix), and a frame at or below the
// frontier is acked without being re-applied (counted in
// duplicates_dropped). A client that crashes, reconnects, and
// retransmits its unacked frames under the same session therefore lands
// each frame exactly once, across server restarts too — the dedup state
// is journaled in the WAL and checkpointed into the manifest. Sessions
// are client-chosen; producers must not share one.
//
// # Shutdown
//
// Close stops the listener, then drains: every connection's reader stops,
// its queued requests are applied and acked, and the connection closes.
// Accepted (acked) inserts are never dropped by shutdown. The matrix
// itself stays open — it belongs to the caller, who typically calls its
// Close (final checkpoint) next.
package server

import (
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hhgb"
	"hhgb/internal/flight"
	"hhgb/internal/metrics"
	"hhgb/internal/pool"
	"hhgb/internal/proto"
	"hhgb/internal/shard"
)

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("server: closed")

// DefaultQueueDepth is the default per-connection apply-queue depth in
// frames: the pipelining window between the connection's reader and
// applier.
const DefaultQueueDepth = 32

// DefaultMaxInFlight is the default aggregate in-flight entry budget.
const DefaultMaxInFlight = 1 << 21

// DefaultSubPatience bounds how long one WindowSummary write to a
// subscriber may block before the connection is declared slow and
// evicted.
const DefaultSubPatience = 10 * time.Second

// Config describes a network ingest server.
type Config struct {
	// Matrix is the sharded matrix the server fronts. Exactly one of
	// Matrix and Windowed is required; both are owned by the caller
	// (Close does not close them).
	Matrix *hhgb.Sharded
	// Windowed is the temporal window store the server fronts instead of
	// a flat Matrix: inserts must carry event timestamps (InsertAt),
	// range queries and Subscribe work, and plain Insert is refused.
	Windowed *hhgb.Windowed
	// TLS, when set, wraps the listener: every accepted connection
	// performs the TLS handshake before the protocol handshake.
	TLS *tls.Config
	// MaxBatch caps the entries of one insert frame; zero selects
	// proto.MaxBatch. Larger frames are refused with ErrCodeTooLarge.
	MaxBatch int
	// QueueDepth is the per-connection apply queue in frames; zero selects
	// DefaultQueueDepth.
	QueueDepth int
	// MaxInFlight is the aggregate decoded-but-unapplied entry budget
	// across all connections; zero selects DefaultMaxInFlight. Inserts
	// beyond it are answered with ErrCodeOverload and dropped.
	MaxInFlight int64
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
	// Metrics, when set, receives the server's instruments: every /stats
	// counter mirrored off the same atomics (so the two endpoints always
	// reconcile), frame counts, per-op latency histograms, and the
	// in-flight budget. Nil disables registration; the apply path still
	// observes into discarded instruments.
	Metrics *metrics.Registry
	// SubPatience bounds how long one WindowSummary write to a subscriber
	// may block. A write that times out — the peer stopped reading —
	// evicts the connection: a typed ErrCodeEvicted frame is attempted
	// and the connection closes. Zero selects DefaultSubPatience. The
	// windowed store's own queue bound (hhgb.WithSubscriberQueue) is the
	// complementary policy for consumers that read, just too slowly.
	SubPatience time.Duration
	// Flight, when set, receives the server's structured event stream —
	// connection open/close, refusals, subscriber evictions, and (via
	// sampled spans) per-frame pipeline traces. Share one recorder with
	// the matrix (hhgb.WithFlightRecorder) so matrix-side events (WAL
	// fsyncs, checkpoints, seals) interleave on the same timeline.
	Flight *flight.Recorder
	// TraceSample samples one in every TraceSample insert frames into a
	// per-stage latency span, observed into the
	// hhgb_server_ingest_stage_seconds histograms and — past SlowFrame —
	// recorded into Flight. Zero or negative disables sampling; unsampled
	// frames pay one atomic add and zero allocations.
	TraceSample int
	// SlowFrame is the ring-record threshold for sampled frames: a
	// sampled frame whose end-to-end latency reaches it is written to
	// Flight stage by stage, with a slow_frame marker event. Zero records
	// every sampled frame (no marker); negative records none.
	SlowFrame time.Duration
	// SlowQuery is the ring-record threshold for query spans, the read
	// path's analog of SlowFrame: a spanned query whose end-to-end
	// latency reaches it lands in Flight as a causally ordered
	// decode → plan → fanout → merge → encode → ack chain, with a
	// slow_query marker event. Queries are orders of magnitude rarer
	// than insert frames, so when tracing is on at all (TraceSample > 0
	// or SlowQuery > 0) every query is spanned — into the
	// hhgb_query_stage_seconds and fan-out-shape histograms — and
	// SlowQuery only gates the ring. Zero records every spanned query
	// (no marker); negative records none.
	SlowQuery time.Duration
}

// store is what the server asks of whichever backend it fronts, flat or
// windowed: the handshake's Welcome fields, the session frontiers, and the
// two durability barriers. Both *hhgb.Sharded and *hhgb.Windowed satisfy
// it; Config.Matrix and Config.Windowed stay in use only where time
// matters (insert kinds, Subscribe, range views).
type store interface {
	Dim() uint64
	Shards() int
	Durable() bool
	SessionResume(session string) uint64
	SessionMint(session string) uint64
	Flush() error
	Checkpoint() error
}

// batchPoolCap bounds how many idle decode batches the server retains
// across all connections. Circulation above it falls to the garbage
// collector; steady traffic recycles well under it.
const batchPoolCap = 64

// Server accepts proto connections and feeds one Sharded matrix.
type Server struct {
	cfg Config
	st  store // cfg.Matrix or cfg.Windowed, whichever is set

	// batchPool pools the insert decode scratch: the reader borrows a
	// *proto.Batch per insert frame, decodes into it (reusing capacity),
	// ownership rides the request through the apply queue, and the
	// applier returns it once the matrix has copied the entries out — at
	// ack time, or on whichever error path consumed the request. An
	// interface so tests can swap in a leak-detecting pool.Checked.
	batchPool pool.Pool[*proto.Batch]

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*conn]struct{}
	nextID uint64
	closed bool
	wg     sync.WaitGroup

	inFlight atomic.Int64

	opHist map[byte]*metrics.Histogram
	// tracer samples insert frames into stage-latency spans; always
	// non-nil (an inactive tracer samples nothing and costs one branch).
	tracer *flight.Tracer
	// qtracer spans read ops the same way; always non-nil. Every query is
	// spanned when tracing is on at all (see Config.SlowQuery).
	qtracer *flight.Tracer
	// shardMet is the registry's shard instrument set — the same counters
	// the fronted matrix's workers bump when Config.Metrics matches the
	// matrix's registry (the deployment shape). EXPLAIN reads the
	// pushdown-cache counters around a query to report its cache traffic.
	shardMet *shard.Metrics

	totalConns    atomic.Int64
	batches       atomic.Int64
	entries       atomic.Int64
	overloads     atomic.Int64
	dupsDropped   atomic.Int64
	sessResumed   atomic.Int64
	rejected      atomic.Int64
	flushes       atomic.Int64
	checkpoints   atomic.Int64
	queries       atomic.Int64
	subscriptions atomic.Int64
	summariesOut  atomic.Int64
	evictions     atomic.Int64
	// framesIn/framesOut are metrics-only (not part of the /stats v1
	// schema): whole protocol frames decoded and written.
	framesIn  atomic.Int64
	framesOut atomic.Int64
	// bytes of connections that have already closed; live connections are
	// summed at Stats time.
	closedBytesIn  atomic.Int64
	closedBytesOut atomic.Int64
}

// New returns a server over cfg.Matrix or cfg.Windowed. Serve starts
// accepting.
func New(cfg Config) (*Server, error) {
	if (cfg.Matrix == nil) == (cfg.Windowed == nil) {
		return nil, errors.New("server: exactly one of Config.Matrix and Config.Windowed is required")
	}
	if cfg.MaxBatch <= 0 || cfg.MaxBatch > proto.MaxBatch {
		cfg.MaxBatch = proto.MaxBatch
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.SubPatience <= 0 {
		cfg.SubPatience = DefaultSubPatience
	}
	// Queries are rare next to insert frames: when tracing is on at all,
	// span every query (1-in-1) so the stage histograms are complete and
	// a slow query can never dodge the ring by losing the sample lottery.
	qEvery := 0
	if cfg.TraceSample > 0 || cfg.SlowQuery > 0 {
		qEvery = 1
	}
	var st store = cfg.Matrix
	if cfg.Windowed != nil {
		st = cfg.Windowed
	}
	s := &Server{
		cfg:       cfg,
		st:        st,
		conns:     make(map[*conn]struct{}),
		opHist:    opHistograms(cfg.Metrics),
		tracer:    flight.NewTracer(flight.IngestPlane, cfg.Metrics, cfg.Flight, cfg.TraceSample, cfg.SlowFrame),
		qtracer:   flight.NewTracer(flight.QueryPlane, cfg.Metrics, cfg.Flight, qEvery, cfg.SlowQuery),
		shardMet:  shard.NewMetrics(cfg.Metrics),
		batchPool: pool.New(batchPoolCap, func() *proto.Batch { return new(proto.Batch) }),
	}
	registerServerFuncs(s)
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on ln until Close. With Config.TLS set, the
// listener is wrapped so every connection speaks TLS. It returns
// ErrServerClosed after a graceful Close, or the accept error that
// stopped it.
func (s *Server) Serve(ln net.Listener) error {
	if s.cfg.TLS != nil {
		ln = tls.NewListener(ln, s.cfg.TLS)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return ErrServerClosed
		}
		s.nextID++
		// The queue is allocated here, before the conn is visible to
		// Stats, so stats() reading len(c.queue) never races run()'s
		// post-handshake setup.
		c := &conn{srv: s, id: s.nextID, nc: nc, queue: make(chan request, s.cfg.QueueDepth)}
		s.conns[c] = struct{}{}
		s.totalConns.Add(1)
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			c.run()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
			s.closedBytesIn.Add(c.bytesIn.Load())
			s.closedBytesOut.Add(c.bytesOut.Load())
		}()
	}
}

// Close stops the listener and drains every connection: queued requests
// are applied and acked, and the connections close. It returns once all
// connection goroutines have exited. The matrix is left open. Close is
// idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.beginDrain()
	}
	s.wg.Wait()
	return nil
}

// StatsVersion identifies the /stats JSON schema. It increments whenever
// a field of Stats or ConnStats is renamed, retyped, or removed — adding
// a field is compatible and does NOT bump it. Dashboards should pin the
// version they were written against; TestStatsSchemaPinned asserts the
// exact field set shipped for this version, so accidental drift fails CI
// instead of silently breaking consumers.
const StatsVersion = 1

// Stats is a point-in-time snapshot of the server's counters — the
// versioned schema served at /stats.
type Stats struct {
	Version       int   `json:"version"`
	ActiveConns   int   `json:"active_conns"`
	TotalConns    int64 `json:"total_conns"`
	InsertBatches int64 `json:"insert_batches"`
	InsertEntries int64 `json:"insert_entries"`
	Overloads     int64 `json:"overloads"`
	// DuplicatesDropped counts sessioned insert frames acked without
	// being applied because their (session, seq) was already at or below
	// the session's accepted frontier — the exactly-once dedup at work.
	DuplicatesDropped int64 `json:"duplicates_dropped"`
	// SessionsResumed counts handshakes that arrived with a nonzero
	// resume seq: reconnecting clients picking an existing session back
	// up.
	SessionsResumed int64       `json:"sessions_resumed"`
	Rejected        int64       `json:"rejected"`
	Flushes         int64       `json:"flushes"`
	Checkpoints     int64       `json:"checkpoints"`
	Queries         int64       `json:"queries"`
	Subscriptions   int64       `json:"subscriptions"`
	WindowSummaries int64       `json:"window_summaries_pushed"`
	InFlightEntries int64       `json:"in_flight_entries"`
	BytesIn         int64       `json:"bytes_in"`
	BytesOut        int64       `json:"bytes_out"`
	Conns           []ConnStats `json:"conns,omitempty"`
}

// ConnStats is one live connection's slice of the counters.
type ConnStats struct {
	ID            uint64 `json:"id"`
	Remote        string `json:"remote"`
	InsertBatches int64  `json:"insert_batches"`
	InsertEntries int64  `json:"insert_entries"`
	Overloads     int64  `json:"overloads"`
	Pending       int    `json:"pending"`
	BytesIn       int64  `json:"bytes_in"`
	BytesOut      int64  `json:"bytes_out"`
}

// Stats snapshots the aggregate and per-connection counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Version:           StatsVersion,
		TotalConns:        s.totalConns.Load(),
		InsertBatches:     s.batches.Load(),
		InsertEntries:     s.entries.Load(),
		Overloads:         s.overloads.Load(),
		DuplicatesDropped: s.dupsDropped.Load(),
		SessionsResumed:   s.sessResumed.Load(),
		Rejected:          s.rejected.Load(),
		Flushes:           s.flushes.Load(),
		Checkpoints:       s.checkpoints.Load(),
		Queries:           s.queries.Load(),
		Subscriptions:     s.subscriptions.Load(),
		WindowSummaries:   s.summariesOut.Load(),
		InFlightEntries:   s.inFlight.Load(),
		BytesIn:           s.closedBytesIn.Load(),
		BytesOut:          s.closedBytesOut.Load(),
	}
	s.mu.Lock()
	for c := range s.conns {
		cs := c.stats()
		st.Conns = append(st.Conns, cs)
		st.BytesIn += cs.BytesIn
		st.BytesOut += cs.BytesOut
	}
	s.mu.Unlock()
	st.ActiveConns = len(st.Conns)
	sort.Slice(st.Conns, func(i, j int) bool { return st.Conns[i].ID < st.Conns[j].ID })
	return st
}

// StatsHandler serves the Stats snapshot as JSON — the expvar-style
// introspection endpoint (mount it wherever the operator's HTTP mux
// lives; cmd/hhgb-serve exposes it at /stats).
func (s *Server) StatsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Stats())
	})
}

// request is one decoded client frame on a connection's apply queue.
type request struct {
	kind  byte
	seq   uint64
	batch *proto.Batch // insert, insertAt: pooled; owner must return it
	ts    uint64       // insertAt: event time, unix nanoseconds
	q     proto.Query  // the six query kinds and explain
	level byte         // subscribe
	// span is the request's sampled latency span: an ingest span on 1 in
	// Config.TraceSample inserts, a query span on read ops when query
	// tracing is on. Nil otherwise, and every span method is nil-safe, so
	// the common path pays one branch per mark.
	span *flight.Span
}

// conn is one accepted connection.
type conn struct {
	srv *Server
	id  uint64
	nc  net.Conn

	// session is the client-chosen exactly-once session identifier from
	// the Hello, never empty. Set once during the handshake, read-only
	// afterwards.
	session string

	wmu sync.Mutex // guards w: the applier writes responses, the reader overload/fatal errors, subscription pushers
	w   *proto.Writer

	queue    chan request
	draining atomic.Bool
	// busy counts the requests the reader has enqueued and the applier has
	// not yet answered. Only the reader adds to it, so when the reader
	// reads zero, nothing is queued or executing on the connection and
	// every earlier frame has taken effect and been answered: the reader
	// may serve a query itself (see run). After a write failure the
	// applier drains without answering, and busy stays above zero.
	busy atomic.Int64

	// ackBuf is the applier's reusable Ack body scratch (see conn.ack);
	// owned by the applier goroutine exclusively.
	ackBuf []byte

	// subs are this connection's live window subscriptions; each owns a
	// pusher goroutine writing WindowSummary frames under wmu. Guarded by
	// subMu; closed (and waited for) at teardown.
	subMu  sync.Mutex
	subs   []*hhgb.WindowSub
	subWG  sync.WaitGroup
	closed atomic.Bool // teardown begun: refuse new subscriptions

	batches   atomic.Int64
	entries   atomic.Int64
	overloads atomic.Int64
	bytesIn   atomic.Int64
	bytesOut  atomic.Int64
}

func (c *conn) stats() ConnStats {
	return ConnStats{
		ID:            c.id,
		Remote:        c.nc.RemoteAddr().String(),
		InsertBatches: c.batches.Load(),
		InsertEntries: c.entries.Load(),
		Overloads:     c.overloads.Load(),
		Pending:       len(c.queue),
		BytesIn:       c.bytesIn.Load(),
		BytesOut:      c.bytesOut.Load(),
	}
}

// drainWriteGrace bounds how long a draining connection may block writing
// its final acks: a healthy client drains them in microseconds, while a
// stalled or malicious one that stopped reading would otherwise wedge its
// applier in a full kernel send buffer and hang Server.Close forever.
const drainWriteGrace = 5 * time.Second

// evictNoticeGrace bounds the best-effort ErrCodeEvicted frame written to
// a subscriber being evicted — its socket is often the reason it fell
// behind, so the notice gets one short deadline, then the connection
// closes regardless.
const evictNoticeGrace = time.Second

// beginDrain asks the connection to stop reading: the reader observes the
// flag (its blocking read is interrupted by the deadline) and falls into
// the normal shutdown path — drain the queue, ack, close. The write side
// gets a grace deadline so a peer that stopped reading cannot block the
// drain indefinitely (its applier falls into the write-error path and
// exits).
func (c *conn) beginDrain() {
	c.draining.Store(true)
	c.nc.SetReadDeadline(time.Now())
	c.nc.SetWriteDeadline(time.Now().Add(drainWriteGrace))
}

// send writes one frame under the write lock; flush pushes it (and
// everything buffered) to the wire.
func (c *conn) send(kind byte, body []byte, flush bool) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.w.WriteFrame(kind, body); err != nil {
		return err
	}
	if flush {
		if err := c.w.Flush(); err != nil {
			return err
		}
	}
	c.srv.framesOut.Add(1)
	c.bytesOut.Store(c.w.Bytes())
	return nil
}

// sendTimed writes and flushes one frame under a write deadline of the
// given grace, so a peer that stopped reading turns into a timeout error
// instead of a goroutine wedged in a full send buffer. The deadline is
// restored afterwards: cleared normally, re-armed to the drain grace if
// the connection began draining meanwhile (checked AFTER the restore, so
// a concurrent beginDrain can never be left with an unbounded write).
func (c *conn) sendTimed(kind byte, body []byte, grace time.Duration) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.nc.SetWriteDeadline(time.Now().Add(grace))
	err := c.w.WriteFrame(kind, body)
	if err == nil {
		err = c.w.Flush()
	}
	c.nc.SetWriteDeadline(time.Time{})
	if c.draining.Load() {
		c.nc.SetWriteDeadline(time.Now().Add(drainWriteGrace))
	}
	if err == nil {
		c.srv.framesOut.Add(1)
	}
	c.bytesOut.Store(c.w.Bytes())
	return err
}

func (c *conn) sendErr(seq, code uint64, msg string, flush bool) error {
	return c.send(proto.KindError, proto.AppendError(nil, seq, code, msg), flush)
}

// run owns the connection end to end: handshake, then the reader loop
// feeding the applier goroutine, then teardown.
func (c *conn) run() {
	defer c.nc.Close()
	r := proto.NewReader(c.nc)
	c.w = proto.NewWriter(c.nc)

	// Handshake. The first frame must be a valid Hello at our version.
	f, err := r.Next()
	if err != nil {
		c.srv.logf("conn %d: handshake read: %v", c.id, err)
		return
	}
	c.srv.framesIn.Add(1)
	if f.Kind != proto.KindHello {
		c.sendErr(0, proto.ErrCodeMalformed, "expected hello", true)
		return
	}
	v, session, resumeSeq, err := proto.ParseHello(f.Body)
	if v != 0 && v != proto.Version {
		// The version field parsed and disagrees — including the shorter
		// Hello of a pre-session client, whose body stops at the version.
		// Answer with a version refusal, not a generic malformed error.
		c.sendErr(0, proto.ErrCodeVersion, fmt.Sprintf("server speaks version %d, client %d", proto.Version, v), true)
		return
	}
	if err != nil {
		c.sendErr(0, proto.ErrCodeMalformed, err.Error(), true)
		return
	}
	c.session = session
	st := c.srv.st
	wel := proto.Welcome{
		Version: proto.Version,
		Dim:     st.Dim(),
		Shards:  uint64(st.Shards()),
		Durable: st.Durable(),
		LastSeq: st.SessionResume(session),
		HighSeq: st.SessionMint(session),
	}
	if wm := c.srv.cfg.Windowed; wm != nil {
		wel.Window = uint64(wm.Window())
	}
	if resumeSeq > 0 {
		c.srv.sessResumed.Add(1)
	}
	if err := c.send(proto.KindWelcome, proto.AppendWelcome(nil, wel), true); err != nil {
		return
	}
	c.srv.cfg.Flight.Record(flight.KindConnOpen, c.id, c.session, 0, uint64(wel.LastSeq), 0, 0)

	// Applier: executes requests in order, writes responses. The write
	// side flushes whenever the queue is momentarily empty — batching
	// acks under load, bounding latency when idle.
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.apply()
	}()

	// Reader loop.
	for {
		f, err := r.Next()
		c.bytesIn.Store(r.Bytes())
		if err == nil {
			c.srv.framesIn.Add(1)
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !c.draining.Load() {
				if errors.Is(err, proto.ErrMalformed) {
					c.sendErr(0, proto.ErrCodeMalformed, err.Error(), true)
				}
				c.srv.logf("conn %d: read: %v", c.id, err)
			}
			break
		}
		req, fatal, drop := c.decode(f)
		if fatal {
			break
		}
		if drop {
			continue
		}
		if isQuery(req.kind) && c.busy.Load() == 0 {
			// An idle connection's query runs here: program order holds
			// with nothing ahead of it, and the hop to the applier and
			// back is most of a small read's latency.
			if err := c.serve(req, true); err != nil {
				c.srv.logf("conn %d: write: %v", c.id, err)
				break
			}
			continue
		}
		c.busy.Add(1)
		c.queue <- req
		if req.kind == proto.KindGoodbye {
			break
		}
	}
	close(c.queue)
	<-done
	c.closeSubs()
	c.srv.cfg.Flight.Record(flight.KindConnClose, c.id, c.session, 0,
		uint64(c.bytesIn.Load()), uint64(c.bytesOut.Load()), 0)
}

// closeSubs ends every subscription and waits for their pushers, so no
// goroutine outlives the connection.
func (c *conn) closeSubs() {
	c.closed.Store(true)
	c.subMu.Lock()
	subs := c.subs
	c.subs = nil
	c.subMu.Unlock()
	for _, sub := range subs {
		sub.Close()
	}
	c.subWG.Wait()
}

// startSub registers one subscription and its pusher goroutine: summaries
// stream to the client in seal order, tagged with the Subscribe seq,
// until the subscription (or the connection) closes. The pusher writes
// under wmu, interleaving whole frames with the applier's responses.
func (c *conn) startSub(sub *hhgb.WindowSub, seq uint64) {
	c.subMu.Lock()
	if c.closed.Load() {
		c.subMu.Unlock()
		sub.Close()
		return
	}
	c.subs = append(c.subs, sub)
	c.subWG.Add(1)
	c.subMu.Unlock()
	go func() {
		defer c.subWG.Done()
		for {
			ws, ok := sub.Next()
			if !ok {
				if sub.Evicted() {
					// The windowed store cut the subscription loose: its
					// queue stayed over the bound past the configured
					// patience. Tell the client why (best effort, under a
					// short deadline — the socket may be the reason it
					// fell behind), then tear the whole connection down: a
					// consumer that cannot keep up with summaries is not
					// keeping up with anything.
					c.srv.evictions.Add(1)
					c.srv.cfg.Flight.Record(flight.KindEviction, c.id, c.session, seq, 0, 0, 0)
					_ = c.sendTimed(proto.KindError,
						proto.AppendError(nil, seq, proto.ErrCodeEvicted,
							"subscriber evicted: summary backlog over bound past patience"),
						evictNoticeGrace)
					c.nc.Close()
				}
				return
			}
			body := proto.AppendWindowSummary(nil, proto.WindowSummary{
				Sub:          seq,
				Level:        uint64(ws.Level),
				Start:        uint64(ws.Start.UnixNano()),
				End:          uint64(ws.End.UnixNano()),
				Entries:      uint64(ws.Entries),
				Sources:      uint64(ws.Sources),
				Destinations: uint64(ws.Destinations),
				Packets:      ws.Packets,
			})
			if err := c.sendTimed(proto.KindWindowSummary, body, c.srv.cfg.SubPatience); err != nil {
				sub.Close()
				// A deadline expiry means the peer stopped reading its
				// summaries: evict it — close the connection so reader
				// and applier tear down — and count it. No typed notice
				// here: the summary write may have stopped mid-frame, so
				// anything appended after it would be unparseable. Any
				// other write error is ordinary teardown in progress.
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					c.srv.evictions.Add(1)
					c.srv.cfg.Flight.Record(flight.KindEviction, c.id, c.session, seq, 1, 0, 0)
					c.nc.Close()
				}
				return
			}
			c.srv.summariesOut.Add(1)
		}
	}()
}

// admitInsert applies the reader-side size and overload policies to one
// decoded insert batch, answering the refusing error frame itself.
// false means the frame is dropped (the caller returns the batch).
func (c *conn) admitInsert(b *proto.Batch, seq uint64) bool {
	s := c.srv
	if b.Len() > s.cfg.MaxBatch {
		s.cfg.Flight.Record(flight.KindRefusal, c.id, c.session, seq,
			uint64(proto.ErrCodeTooLarge), uint64(b.Len()), 0)
		c.sendErr(seq, proto.ErrCodeTooLarge,
			fmt.Sprintf("batch of %d entries exceeds server cap %d", b.Len(), s.cfg.MaxBatch), true)
		return false
	}
	n := int64(b.Len())
	if s.inFlight.Add(n) > s.cfg.MaxInFlight {
		s.inFlight.Add(-n)
		c.overloads.Add(1)
		s.overloads.Add(1)
		s.cfg.Flight.Record(flight.KindRefusal, c.id, c.session, seq,
			uint64(proto.ErrCodeOverload), uint64(n), 0)
		c.sendErr(seq, proto.ErrCodeOverload,
			fmt.Sprintf("in-flight entry budget %d exhausted", s.cfg.MaxInFlight), true)
		return false
	}
	return true
}

// queryStart captures the decode-begin clock for a query frame — zero
// (no clock read) when query tracing is off.
func (c *conn) queryStart() int64 {
	if c.srv.qtracer.Active() {
		return flight.Now()
	}
	return 0
}

// sampleQuery attaches a query span to a decoded read request when the
// tracer picks it, closing the decode stage. No-op (nil span) when
// tracing is off — the untraced path stays allocation-free.
func (c *conn) sampleQuery(req *request, start int64) {
	if sp := c.srv.qtracer.Sample(c.id, c.session, req.seq, start); sp != nil {
		sp.EndStage(flight.QStageDecode)
		req.span = sp
	}
}

// decode turns one frame into a request, applying the overload and size
// policies that run on the reader (so their error frames can overtake
// queued work). fatal=true tears the connection down; drop=true skips
// just this frame.
func (c *conn) decode(f proto.Frame) (req request, fatal, drop bool) {
	s := c.srv
	switch f.Kind {
	case proto.KindInsert, proto.KindInsertAt:
		// Trace sampling decides after admission (a refused frame must not
		// hold a span), but the decode stage starts here — capture the
		// clock before the parse so a sampled span charges parse plus
		// admission to StageDecode.
		var start int64
		if s.tracer.Active() {
			start = flight.Now()
		}
		b := s.batchPool.Get()
		var (
			seq, ts uint64
			err     error
		)
		if f.Kind == proto.KindInsertAt {
			seq, ts, err = proto.ParseInsertAtBatch(f.Body, b)
		} else {
			seq, err = proto.ParseInsertBatch(f.Body, b)
		}
		if err != nil {
			s.batchPool.Put(b)
			c.sendErr(0, proto.ErrCodeMalformed, err.Error(), true)
			return req, true, false
		}
		if !c.admitInsert(b, seq) {
			s.batchPool.Put(b)
			return req, false, true
		}
		req = request{kind: f.Kind, seq: seq, ts: ts, batch: b}
		if sp := s.tracer.Sample(c.id, c.session, seq, start); sp != nil {
			sp.EndStage(flight.StageDecode)
			req.span = sp
		}
		return req, false, false
	case proto.KindFlush, proto.KindCheckpoint, proto.KindGoodbye:
		seq, err := proto.ParseSeq(f.Body)
		if err != nil {
			c.sendErr(0, proto.ErrCodeMalformed, err.Error(), true)
			return req, true, false
		}
		return request{kind: f.Kind, seq: seq}, false, false
	case proto.KindLookup, proto.KindTopK, proto.KindSummary,
		proto.KindRangeLookup, proto.KindRangeTopK, proto.KindRangeSummary,
		proto.KindExplain:
		start := c.queryStart()
		q, err := proto.ParseQuery(f.Kind, f.Body)
		if err != nil {
			c.sendErr(0, proto.ErrCodeMalformed, err.Error(), true)
			return req, true, false
		}
		req = request{kind: f.Kind, seq: q.Seq, q: q}
		c.sampleQuery(&req, start)
		return req, false, false
	case proto.KindSubscribe:
		seq, level, err := proto.ParseSubscribe(f.Body)
		if err != nil {
			c.sendErr(0, proto.ErrCodeMalformed, err.Error(), true)
			return req, true, false
		}
		return request{kind: f.Kind, seq: seq, level: level}, false, false
	default:
		c.sendErr(0, proto.ErrCodeMalformed, fmt.Sprintf("unexpected frame kind %#x", f.Kind), true)
		return req, true, false
	}
}

// rejection is a request the server refuses as asked — the request, not
// the server, is at fault — answered with ErrCodeRejected.
type rejection string

func (r rejection) Error() string { return string(r) }

// reject answers one request with a typed per-request refusal — never a
// torn connection — and counts it.
func (c *conn) reject(seq uint64, msg string) error {
	c.srv.rejected.Add(1)
	c.srv.cfg.Flight.Record(flight.KindRefusal, c.id, c.session, seq,
		uint64(proto.ErrCodeRejected), 0, 0)
	return c.sendErr(seq, proto.ErrCodeRejected, msg, true)
}

// rangeView resolves the windowed store's view for one query's event-time
// bounds. No bounds — a flat op's zero T0/T1, or a range op's zero T1 —
// is everything the store has observed.
func rangeView(wm *hhgb.Windowed, t0, t1 uint64) (*hhgb.RangeView, error) {
	if t1 == 0 {
		return wm.AllTime()
	}
	if t0 > math.MaxInt64 || t1 > math.MaxInt64 || t1 <= t0 {
		return nil, rejection(fmt.Sprintf("bad event-time range [%d, %d)", t0, t1))
	}
	return wm.QueryRange(time.Unix(0, int64(t0)), time.Unix(0, int64(t1)))
}

// isQuery reports whether a request kind is a read op: the six query
// kinds and Explain. Only these may run on the reader (see run).
func isQuery(kind byte) bool {
	switch kind {
	case proto.KindLookup, proto.KindTopK, proto.KindSummary,
		proto.KindRangeLookup, proto.KindRangeTopK, proto.KindRangeSummary,
		proto.KindExplain:
		return true
	}
	return false
}

// apply executes queued requests in order. Responses flush when the queue
// is momentarily empty (or on error frames), so acks batch under load.
func (c *conn) apply() {
	for req := range c.queue {
		err := c.serve(req, len(c.queue) == 0)
		c.busy.Add(-1)
		if err != nil {
			// The write side is gone; stop responding but keep draining
			// the queue so in-flight accounting stays correct.
			c.srv.logf("conn %d: write: %v", c.id, err)
			c.drainQuietly()
			return
		}
	}
	c.flushWriter()
}

// serve executes one request and writes its response; flush pushes the
// response to the wire. The applier calls it for every queued request, the
// reader for a query on an idle connection. Only the applier may pass an
// insert, flush, checkpoint, goodbye or subscribe: those use the
// applier-owned ack scratch.
func (c *conn) serve(req request, flush bool) error {
	s := c.srv
	wm := s.cfg.Windowed
	begun := time.Now()
	// Sampled inserts and spanned queries close their queue-wait stage
	// at dequeue (stage 1 on both planes) — at once, ≈ 0, for a query the
	// reader serves itself; nil-safe no-op otherwise.
	req.span.EndStage(flight.StageQueue)
	var err error
	switch req.kind {
	case proto.KindInsert, proto.KindInsertAt:
		err = c.serveInsert(req, flush)
	case proto.KindFlush:
		s.flushes.Add(1)
		err = c.ackOp(req.seq, s.st.Flush(), flush)
	case proto.KindCheckpoint:
		s.checkpoints.Add(1)
		err = c.ackOp(req.seq, s.st.Checkpoint(), flush)
	case proto.KindGoodbye:
		// A full Flush behind the goodbye ack: a client that saw it can
		// immediately observe its inserts via another connection's
		// queries.
		err = c.ackOp(req.seq, s.st.Flush(), true)
	case proto.KindLookup, proto.KindTopK, proto.KindSummary,
		proto.KindRangeLookup, proto.KindRangeTopK, proto.KindRangeSummary,
		proto.KindExplain:
		err = c.serveQuery(req, flush)
	case proto.KindSubscribe:
		if wm == nil {
			err = c.reject(req.seq, "subscriptions need a windowed server")
			break
		}
		var sub *hhgb.WindowSub
		if req.level == proto.SubscribeAllLevels {
			sub = wm.Subscribe()
		} else if int(req.level) < wm.Levels() {
			sub = wm.Subscribe(int(req.level))
		} else {
			err = c.reject(req.seq, fmt.Sprintf("level %d beyond the server's %d levels", req.level, wm.Levels()))
			break
		}
		s.subscriptions.Add(1)
		// Ack first (under program order), then start the pusher:
		// every summary the client sees follows its subscribe ack.
		err = c.ack(req.seq, true)
		if err != nil {
			sub.Close()
			break
		}
		c.startSub(sub, req.seq)
	}
	if h := s.opHist[req.kind]; h != nil {
		h.Observe(time.Since(begun).Seconds())
	}
	return err
}

// serveInsert applies one Insert or InsertAt frame and acks it. The two
// kinds differ only in which store takes them and whether an event
// timestamp rides along; admission accounting, the pooled batch, the
// sampled span and the dedup ack are shared.
func (c *conn) serveInsert(req request, flush bool) error {
	s := c.srv
	m, wm := s.cfg.Matrix, s.cfg.Windowed
	b := req.batch
	n := int64(b.Len())
	timed := req.kind == proto.KindInsertAt
	var (
		dup  bool
		ierr error
	)
	switch {
	case timed && wm == nil:
		ierr = rejection("server is not windowed; use plain inserts")
	case !timed && wm != nil:
		ierr = rejection("server is windowed; use timestamped inserts (InsertAt)")
	case timed && req.ts > math.MaxInt64:
		ierr = fmt.Errorf("timestamp %d overflows", req.ts)
	case timed:
		dup, ierr = wm.AppendWeightedAtSessionSpan(c.session, req.seq, time.Unix(0, int64(req.ts)), b.Rows, b.Cols, b.Vals, req.span)
	default:
		dup, ierr = m.AppendWeightedSessionSpan(c.session, req.seq, b.Rows, b.Cols, b.Vals, req.span)
	}
	req.span.EndStage(flight.StagePartition)
	s.inFlight.Add(-n)
	// The store copied the entries out (or refused the batch); either way
	// the scratch is dead — recycle it before writing the response.
	s.batchPool.Put(b)
	if ierr != nil {
		req.span.Drop()
		var rej rejection
		if errors.As(ierr, &rej) {
			return c.reject(req.seq, string(rej))
		}
		code := proto.ErrCodeRejected
		if errors.Is(ierr, hhgb.ErrClosed) {
			code = proto.ErrCodeClosed
		}
		s.rejected.Add(1)
		return c.sendErr(req.seq, code, ierr.Error(), true)
	}
	if dup {
		// A retransmit of an already-accepted frame: ack it (the client is
		// waiting for exactly this) without re-applying. Its timings
		// describe the retransmit path, not ingest — drop the span
		// unobserved.
		s.dupsDropped.Add(1)
		err := c.ack(req.seq, flush)
		req.span.Drop()
		return err
	}
	c.batches.Add(1)
	c.entries.Add(n)
	s.batches.Add(1)
	s.entries.Add(n)
	err := c.ack(req.seq, flush)
	req.span.EndStage(flight.StageAck)
	req.span.Done()
	return err
}

// querier is what serveQuery asks of its target: the flat matrix, or a
// windowed store's resolved range view.
type querier interface {
	Lookup(src, dst uint64) (uint64, bool, error)
	TopSources(k int) ([]hhgb.Ranked, error)
	TopDestinations(k int) ([]hhgb.Ranked, error)
	Summary() (hhgb.Summary, error)
}

// serveQuery executes one read op and answers it. Every query kind takes
// this one path: resolve the target (a flat query is a ranged query with
// no bounds), run the span choreography plan → fan-out → merge → encode →
// ack around one call, and encode the op's response. An Explain frame is
// the same execution with a collector attached and the collector's
// trailer as its response — EXPLAIN reports the cover a plain query uses
// because it is that query. Diagnostic path: Explain may allocate.
func (c *conn) serveQuery(req request, flush bool) error {
	s := c.srv
	q, sp := req.q, req.span
	s.queries.Add(1)
	var (
		ex           *flight.QueryExplain
		hits0, miss0 uint64
		execStart    int64
	)
	if req.kind == proto.KindExplain {
		ex = &flight.QueryExplain{}
		hits0, miss0 = s.shardMet.CacheHits.Value(), s.shardMet.CacheMisses.Value()
		execStart = flight.Now()
	}

	var (
		target querier
		view   *hhgb.RangeView
		err    error
	)
	switch wm := s.cfg.Windowed; {
	case q.K > math.MaxInt:
		err = rejection(fmt.Sprintf("k = %d overflows", q.K))
	case wm != nil:
		view, err = rangeView(wm, q.T0, q.T1)
		target = view
	case q.Ranged():
		err = rejection("range queries need a windowed server")
	default:
		target = s.cfg.Matrix
	}
	if err != nil {
		return c.queryFailed(req, err)
	}
	sp.EndStage(flight.QStagePlan)

	// A view times its own per-window legs; the flat store is one leg
	// around the whole pushdown call (level and bounds zero — there is no
	// window).
	var legStart int64
	flatLeg := view == nil && (sp != nil || ex != nil)
	if view != nil {
		view.Instrument(sp, ex)
	} else if flatLeg {
		legStart = flight.Now()
	}
	var (
		value uint64
		found bool
		top   []hhgb.Ranked
		sum   hhgb.Summary
	)
	switch q.Op {
	case proto.KindLookup, proto.KindRangeLookup:
		value, found, err = target.Lookup(q.Src, q.Dst)
	case proto.KindTopK, proto.KindRangeTopK:
		if q.Axis == proto.AxisSources {
			top, err = target.TopSources(int(q.K))
		} else {
			top, err = target.TopDestinations(int(q.K))
		}
	default:
		sum, err = target.Summary()
	}
	if flatLeg {
		d := time.Duration(flight.Now() - legStart)
		shards := 1 // lookups route to one shard
		if q.Op != proto.KindLookup {
			shards = s.st.Shards() // all-shard barrier
		}
		sp.ObserveMax(flight.QStageFanoutMax, d)
		sp.Touch(flight.NoWindow, shards)
		sp.AdvanceStage(flight.QStageFanout)
		if ex != nil {
			ex.Legs = []flight.ExplainLeg{{Shards: shards, Dur: d}}
		}
	}
	if err != nil {
		return c.queryFailed(req, err)
	}
	sp.EndStage(flight.QStageMerge)

	var (
		kind byte
		body []byte
	)
	switch {
	case ex != nil:
		e := explainToWire(ex)
		e.Op = q.Op
		e.TotalNanos = uint64(flight.Now() - execStart)
		// Best-effort under concurrent load: the counters are
		// registry-global, so another connection's query may leak into
		// the delta.
		e.CacheHits = s.shardMet.CacheHits.Value() - hits0
		e.CacheMisses = s.shardMet.CacheMisses.Value() - miss0
		kind, body = proto.KindExplainResp, proto.AppendExplainResp(nil, req.seq, e)
	case q.Op == proto.KindLookup || q.Op == proto.KindRangeLookup:
		kind, body = proto.KindLookupResp, proto.AppendLookupResp(nil, req.seq, found, value)
	case q.Op == proto.KindTopK || q.Op == proto.KindRangeTopK:
		wire := make([]proto.Ranked, len(top))
		for i, t := range top {
			wire[i] = proto.Ranked{ID: t.ID, Value: t.Value}
		}
		kind, body = proto.KindTopKResp, proto.AppendTopKResp(nil, req.seq, wire)
	default:
		kind, body = proto.KindSummaryResp, proto.AppendSummaryResp(nil, req.seq, proto.Summary{
			Entries:      uint64(sum.Entries),
			Sources:      uint64(sum.Sources),
			Destinations: uint64(sum.Destinations),
			TotalPackets: sum.TotalPackets,
			MaxOutDegree: sum.MaxOutDegree,
			MaxInDegree:  sum.MaxInDegree,
		})
	}
	sp.EndStage(flight.QStageEncode)
	err = c.send(kind, body, flush)
	sp.EndStage(flight.QStageAck)
	sp.Done()
	return err
}

// explainToWire converts a filled collector's cover — one timed leg per
// window, and the uncovered holes — to the trailer's wire form.
func explainToWire(ex *flight.QueryExplain) proto.Explain {
	var e proto.Explain
	if len(ex.Legs) > 0 {
		e.Legs = make([]proto.ExplainLeg, len(ex.Legs))
		for i, l := range ex.Legs {
			e.Legs[i] = proto.ExplainLeg{
				Level:    uint64(l.Level),
				Start:    uint64(l.Start),
				End:      uint64(l.End),
				Shards:   uint64(l.Shards),
				DurNanos: uint64(l.Dur),
			}
		}
	}
	if len(ex.Uncovered) > 0 {
		e.Uncovered = make([]proto.ExplainSpan, len(ex.Uncovered))
		for i, u := range ex.Uncovered {
			e.Uncovered[i] = proto.ExplainSpan{Start: uint64(u.Start), End: uint64(u.End)}
		}
	}
	return e
}

// queryFailed answers a query that could not be served, under the one
// classification every read op shares: a request the server refuses as
// asked (bad event-time range, range op on a flat server, overflowing k)
// is ErrCodeRejected, a closed store ErrCodeClosed, anything else
// ErrCodeInternal.
func (c *conn) queryFailed(req request, err error) error {
	req.span.Drop()
	var rej rejection
	switch {
	case errors.As(err, &rej):
		return c.reject(req.seq, string(rej))
	case errors.Is(err, hhgb.ErrClosed):
		return c.sendErr(req.seq, proto.ErrCodeClosed, err.Error(), true)
	default:
		return c.sendErr(req.seq, proto.ErrCodeInternal, err.Error(), true)
	}
}

// ack writes an Ack frame for seq, reusing the applier-owned scratch
// buffer — the per-frame body allocation this avoids is the last one on
// the steady-state ack path. Only the applier goroutine may call it.
func (c *conn) ack(seq uint64, flush bool) error {
	c.ackBuf = proto.AppendSeq(c.ackBuf[:0], seq)
	return c.send(proto.KindAck, c.ackBuf, flush)
}

// ackOp acks a flush/checkpoint-style op, or reports its failure.
func (c *conn) ackOp(seq uint64, opErr error, flush bool) error {
	if opErr != nil {
		code := proto.ErrCodeInternal
		switch {
		case errors.Is(opErr, hhgb.ErrClosed):
			code = proto.ErrCodeClosed
		case errors.Is(opErr, hhgb.ErrNotDurable):
			code = proto.ErrCodeRejected
		}
		return c.sendErr(seq, code, opErr.Error(), true)
	}
	return c.ack(seq, flush)
}

// drainQuietly consumes the rest of the queue after the write side failed,
// releasing the in-flight budget (and the pooled batches) without applying
// anything further.
func (c *conn) drainQuietly() {
	for req := range c.queue {
		if req.batch != nil {
			c.srv.inFlight.Add(-int64(req.batch.Len()))
			c.srv.batchPool.Put(req.batch)
		}
		req.span.Drop() // never applied; recycle unobserved
	}
}

func (c *conn) flushWriter() {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_ = c.w.Flush()
	c.bytesOut.Store(c.w.Bytes())
}
