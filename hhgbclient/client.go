// Package hhgbclient is the streaming client for the hhgb network ingest
// service (internal/server, cmd/hhgb-serve): it turns a TCP connection
// into something that feels like a local hhgb.Sharded — an auto-batching
// Append fast path plus the analysis round-trips — while pipelining
// acknowledgements under the hood.
//
//	c, _ := hhgbclient.Dial("ingest:4739")
//	_ = c.Append(srcs, dsts)       // buffered; frames ship at the threshold
//	_ = c.Flush()                  // applied (+fsynced on a durable server)
//	top, _ := c.TopSources(10)
//	_ = c.Close()
//
// Against a windowed server (Window reports its duration from the
// handshake), appends carry event timestamps and the temporal queries
// open up:
//
//	_ = c.AppendAt(pktTime, srcs, dsts)        // frames cut at window bounds
//	sum, _ := c.RangeSummary(t0, t1)           // only the windows in range
//	cancel, _ := c.Subscribe(0, func(ws hhgb.WindowSummary) { ... })
//
// # Batching and pipelining
//
// Append copies entries into a local buffer; every WithFlushEntries
// entries (default 4096) the buffer ships as one insert frame, without
// waiting for the ack — up to WithMaxPending frames (default 64) ride the
// wire at once, so throughput is bounded by the pipe, not the round-trip.
// A background ticker (WithFlushInterval, default 100ms) ships a partial
// buffer so a trickling stream is never stranded locally; Flush, the
// queries, and Close ship it deterministically.
//
// # Error and durability semantics
//
// An insert ack means the server accepted the batch into its ingest
// pipeline. Flush returns once the server acked its flush — every batch
// this client appended before the call is applied and, on a durable
// server (Durable reports it), fsynced: it survives a server kill -9 from
// that point on. Checkpoint additionally compacts the server's logs.
//
// Asynchronous failures (a rejected batch, an overloaded server dropping
// a frame, a broken connection) are sticky: the first one is returned by
// every subsequent call, so a producer loop cannot silently stream into
// a black hole. Test with errors.Is against ErrOverloaded, ErrRejected,
// ErrServerClosed, and ErrDisconnected.
//
// # Sessions, reconnect, and exactly-once
//
// Every client speaks an exactly-once session: Dial picks a random
// session identifier (pin one with WithSession), every insert frame's
// seq becomes the server's (session, seq) dedup key, and the client
// keeps each sent-but-unacked frame in a retransmit ring. When the
// connection dies, nothing is in doubt:
//
//   - Batches still buffered locally (never sent) carry over and ship
//     normally.
//   - Batches sent but unacked stay in the ring. On reconnect (explicit
//     Reconnect, or the next call with WithReconnect) the client resumes
//     its session; the server's Welcome reports the session's highest
//     safely-applied seq, the client drops ring frames at or below it,
//     and retransmits the rest in order. A frame the server had already
//     applied — the ack was lost in transit — is recognized by its seq
//     and acked again without re-applying, so nothing double-counts.
//   - On a durable server, acked frames stay in the ring until a Flush
//     or Checkpoint ack covers them: a server kill -9 may lose acked but
//     un-fsynced batches, and the reconnecting client retransmits
//     exactly those. The ring is bounded: after WithMaxRing frames
//     (default DefaultMaxRing) the client pipelines a Flush barrier on
//     its own. Explicit Flush at your commit points still bounds what a
//     client crash can leave in doubt.
//
// The two losses sessions cannot absorb are explicit, never silent: an
// overloaded or rejected batch was definitively dropped by the server
// (sticky ErrOverloaded/ErrRejected — retransmitting it could reorder
// the stream, so the producer decides), and a client process crash loses
// the ring itself (resuming a pinned session then continues with fresh
// seqs above the server's minting floor, so new data is never mistaken
// for a retransmission; frames the dead process sent but never got
// flushed stay in doubt).
package hhgbclient

import (
	"crypto/rand"
	"crypto/tls"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"hhgb"
	"hhgb/internal/proto"
)

// Sticky client errors; test with errors.Is.
var (
	// ErrClosed: the client was closed locally.
	ErrClosed = errors.New("hhgbclient: client is closed")
	// ErrOverloaded: the server's in-flight budget dropped a batch.
	ErrOverloaded = errors.New("hhgbclient: server overloaded, batch dropped")
	// ErrRejected: the server refused a batch (validation) or request.
	ErrRejected = errors.New("hhgbclient: request rejected by server")
	// ErrServerClosed: the server's matrix is closed or draining.
	ErrServerClosed = errors.New("hhgbclient: server is closed")
	// ErrDisconnected: the connection died (dial again, or WithReconnect).
	ErrDisconnected = errors.New("hhgbclient: connection lost")
)

// Defaults for the Dial options.
const (
	DefaultFlushEntries  = 4096
	DefaultFlushInterval = 100 * time.Millisecond
	DefaultMaxPending    = 64
	DefaultMaxRing       = 1024
)

// Option configures Dial.
type Option func(*options) error

type options struct {
	flushEntries  int
	flushInterval time.Duration
	intervalSet   bool
	maxPending    int
	maxRing       int
	dialTimeout   time.Duration
	reconnect     bool
	session       string
	tls           *tls.Config
	ackLatency    func(time.Duration)
}

// WithFlushEntries sets the auto-batching threshold in entries: the local
// buffer ships as one insert frame when it reaches n (1 sends every entry
// as its own frame — the unbatched baseline; cap proto.MaxBatch).
func WithFlushEntries(n int) Option {
	return func(o *options) error {
		if n < 1 || n > proto.MaxBatch {
			return fmt.Errorf("hhgbclient: flush threshold %d outside [1, %d]", n, proto.MaxBatch)
		}
		o.flushEntries = n
		return nil
	}
}

// WithFlushInterval sets the background flush period for partial buffers;
// 0 disables the ticker (Flush/queries/Close still ship the buffer).
func WithFlushInterval(d time.Duration) Option {
	return func(o *options) error {
		if d < 0 {
			return fmt.Errorf("hhgbclient: negative flush interval %v", d)
		}
		o.flushInterval = d
		o.intervalSet = true
		return nil
	}
}

// WithMaxPending bounds how many insert frames may be unacked at once —
// the pipelining window. Append blocks when the window is full, so a slow
// server backpressures the producer instead of buffering without bound.
func WithMaxPending(n int) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("hhgbclient: pending window %d < 1", n)
		}
		o.maxPending = n
		return nil
	}
}

// WithMaxRing bounds the retransmit ring on durable servers: once n sent
// frames await durability cover, the client pipelines an automatic Flush
// barrier (no extra round-trip — it rides the stream like any frame), and
// its ack lets the ring forget everything the barrier covers. Without it
// a producer that never calls Flush would grow the ring — and the
// retransmit burst after a reconnect — without bound, since insert acks
// alone do not survive a server kill -9. The bound is approximate (frames
// already in flight when it trips still join the ring) and a no-op on
// non-durable servers, where acks retire ring frames directly. Explicit
// Flush calls at commit points remain the way to bound what a client
// crash can leave in doubt.
func WithMaxRing(n int) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("hhgbclient: ring bound %d < 1", n)
		}
		o.maxRing = n
		return nil
	}
}

// WithDialTimeout bounds Dial (and each reconnect attempt).
func WithDialTimeout(d time.Duration) Option {
	return func(o *options) error {
		o.dialTimeout = d
		return nil
	}
}

// WithReconnect makes a client whose connection died re-dial on the next
// call instead of failing it; see the package comment for the semantics.
// A read (a query or an Explain) that fails because its connection died
// is retried once on a fresh connection: reads are idempotent. An insert
// is never retried by the caller's call; the retransmit ring resends it.
func WithReconnect() Option {
	return func(o *options) error {
		o.reconnect = true
		return nil
	}
}

// WithSession pins the client's exactly-once session identifier instead
// of the random one Dial mints. Use it to resume a stream's session
// across client processes: the reconnect handshake reports the session's
// frontier, and the new process continues above it. Session identifiers
// are at most proto.MaxSession bytes and must not be shared by
// concurrent producers — the dedup key is (session, seq), so two writers
// on one session silently drop each other's frames.
func WithSession(id string) Option {
	return func(o *options) error {
		if id == "" || len(id) > proto.MaxSession {
			return fmt.Errorf("hhgbclient: session id length %d outside [1, %d]", len(id), proto.MaxSession)
		}
		o.session = id
		return nil
	}
}

// WithTLS dials the server over TLS with the given configuration (nil is
// rejected — pass an explicit config, e.g. one whose RootCAs hold the
// server's certificate). Reconnects use it too.
func WithTLS(cfg *tls.Config) Option {
	return func(o *options) error {
		if cfg == nil {
			return errors.New("hhgbclient: WithTLS needs a non-nil config")
		}
		o.tls = cfg
		return nil
	}
}

// WithAckLatency registers an observer invoked with the round-trip time
// of every acked insert frame: ship (or retransmit) to server ack. The
// observer runs on whichever goroutine reads the ack — the background
// receiver, or a call reading its own response — with the client's lock
// held: it must be fast and must not call back into the client. Calls are
// serialized under that lock, and each happens before the Flush that
// covers its frame returns. Frames
// retransmitted after a reconnect restart their clock at retransmission,
// so a reported latency is always for one wire round trip, not the total
// time in doubt.
func WithAckLatency(fn func(time.Duration)) Option {
	return func(o *options) error {
		if fn == nil {
			return errors.New("hhgbclient: WithAckLatency needs a non-nil observer")
		}
		o.ackLatency = fn
		return nil
	}
}

// call is one pipelined request awaiting its response.
type call struct {
	kind   byte
	done   chan response // nil for inserts (acked in the background)
	sentAt time.Time     // ship time for WithAckLatency; zero when unobserved
}

// sentFrame is one insert frame in the retransmit ring: the encoded body
// (its seq baked in, so a retransmission is byte-identical) plus the kind
// to frame it under.
type sentFrame struct {
	kind byte
	body []byte
}

type response struct {
	err     error
	found   bool
	value   uint64
	top     []hhgb.Ranked
	summary hhgb.Summary
	explain Explain
}

// Client is a connection to a network ingest server. All methods are safe
// for concurrent use; Append calls from multiple goroutines interleave at
// batch granularity.
type Client struct {
	addr    string
	opt     options
	session string // exactly-once session id; constant for the client's life

	mu   sync.Mutex
	cond *sync.Cond // signaled when the pipeline window opens or the conn dies
	// rcond parks the background receiver while it has nothing to read or
	// a caller holds the read token; signaled when that changes.
	rcond   *sync.Cond
	nc      net.Conn
	w       *proto.Writer
	r       *proto.Reader
	welcome proto.Welcome
	// reading is the connection's read token: set while one goroutine —
	// the background receiver, or a caller reading its own response — is
	// reading r. Scoped to gen: a reconnect starts with it clear.
	reading bool
	// subscribed: this connection has carried a Subscribe. The server
	// pushes a subscription's summaries until the connection closes, even
	// after cancel, so such a connection is read continuously.
	subscribed bool
	// seq numbers every request frame, monotonically across reconnects —
	// never reset, because insert seqs are the session's dedup keys.
	seq     uint64
	pending map[uint64]*call
	unacked int // pending insert frames
	// sent is the retransmit ring: every insert frame written to the wire
	// and not yet known safe on the server. Non-durable servers: removed
	// on its ack. Durable servers: removed when a Flush/Checkpoint ack
	// covers it (an ack alone does not survive kill -9). On reconnect,
	// frames above the server's reported frontier retransmit in seq
	// order.
	sent map[uint64]sentFrame
	// autoFlush is true while a WithMaxRing-inserted Flush barrier (a
	// pending call with a nil done channel) rides the pipeline; one at a
	// time is enough, since its ack trims the whole ring below it.
	autoFlush bool
	src       []uint64
	dst       []uint64
	wgt       []uint64
	// bufTS is the event-time bucket of the buffered entries (windowed
	// sessions; meaningful only when bufTimed). All buffered entries share
	// one bucket: AppendAt ships the buffer before starting a new one.
	bufTS    int64
	bufTimed bool
	subs     map[uint64]*clientSub // live subscriptions keyed by their seq
	err      error                 // sticky: first async failure
	dead     bool                  // connection-level failure (reconnect can clear)
	// lossErr marks the sticky error as a definitive batch loss
	// (overload, rejection): auto-reconnect must not clear it — only an
	// explicit Reconnect, which acknowledges the loss.
	lossErr bool
	closing bool // Goodbye in flight: the server hanging up is expected
	closed  bool
	gen     int // bumped per (re)connect; receivers tag themselves with it

	tick *time.Ticker
	stop chan struct{}
}

// Dial connects to a server, performs the protocol handshake, and starts
// the background ack receiver (and flush ticker, unless disabled).
func Dial(addr string, opts ...Option) (*Client, error) {
	o := options{
		flushEntries:  DefaultFlushEntries,
		flushInterval: DefaultFlushInterval,
		maxPending:    DefaultMaxPending,
		maxRing:       DefaultMaxRing,
	}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	session := o.session
	if session == "" {
		var raw [16]byte
		if _, err := rand.Read(raw[:]); err != nil {
			return nil, fmt.Errorf("hhgbclient: minting session id: %v", err)
		}
		session = hex.EncodeToString(raw[:])
	}
	c := &Client{addr: addr, opt: o, session: session, stop: make(chan struct{})}
	c.sent = make(map[uint64]sentFrame)
	c.cond = sync.NewCond(&c.mu)
	c.rcond = sync.NewCond(&c.mu)
	c.mu.Lock()
	err := c.connectLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if o.flushInterval > 0 {
		c.tick = time.NewTicker(o.flushInterval)
		go c.flusher()
	}
	return c, nil
}

// connectLocked dials and handshakes, replacing the session state. Callers
// hold mu.
func (c *Client) connectLocked() error {
	var (
		nc  net.Conn
		err error
	)
	d := &net.Dialer{Timeout: c.opt.dialTimeout}
	if c.opt.tls != nil {
		nc, err = tls.DialWithDialer(d, "tcp", c.addr, c.opt.tls)
	} else if c.opt.dialTimeout > 0 {
		nc, err = d.Dial("tcp", c.addr)
	} else {
		nc, err = net.Dial("tcp", c.addr)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrDisconnected, err)
	}
	w := proto.NewWriter(nc)
	r := proto.NewReader(nc)
	// The resume seq is the highest seq this client has assigned: zero on
	// the first connect, so the server can tell fresh sessions from
	// resumed ones. The server's Welcome answers with its own (durable)
	// frontier, which is the authoritative one.
	if err := w.WriteFrame(proto.KindHello, proto.AppendHello(nil, c.session, c.seq)); err != nil {
		nc.Close()
		return fmt.Errorf("%w: %v", ErrDisconnected, err)
	}
	if err := w.Flush(); err != nil {
		nc.Close()
		return fmt.Errorf("%w: %v", ErrDisconnected, err)
	}
	f, err := r.Next()
	if err != nil {
		nc.Close()
		return fmt.Errorf("%w: handshake: %v", ErrDisconnected, err)
	}
	switch f.Kind {
	case proto.KindWelcome:
	case proto.KindError:
		_, code, msg, perr := proto.ParseError(f.Body)
		nc.Close()
		if perr != nil {
			return fmt.Errorf("hhgbclient: handshake: %v", perr)
		}
		return fmt.Errorf("%w: code %d: %s", errForCode(code), code, msg)
	default:
		nc.Close()
		return fmt.Errorf("hhgbclient: handshake reply kind %#x", f.Kind)
	}
	wel, err := proto.ParseWelcome(f.Body)
	if err != nil {
		nc.Close()
		return fmt.Errorf("hhgbclient: handshake: %v", err)
	}
	if c.gen > 0 && (wel.Dim != c.welcome.Dim || wel.Window != c.welcome.Window || wel.Durable != c.welcome.Durable) {
		// A different server answered the session's address. Dedup state
		// means nothing against a different store — refuse loudly rather
		// than resume into it.
		nc.Close()
		return fmt.Errorf("hhgbclient: reconnected to a different server (dim %d→%d, window %d→%d, durable %v→%v)",
			c.welcome.Dim, wel.Dim, c.welcome.Window, wel.Window, c.welcome.Durable, wel.Durable)
	}
	c.nc = nc
	c.w = w
	c.r = r
	c.reading = false
	c.subscribed = false
	c.welcome = wel
	c.pending = make(map[uint64]*call)
	c.unacked = 0
	c.autoFlush = false
	c.dead = false
	c.err = nil
	c.gen++
	// The server's frontier covers every ring frame at or below it: those
	// are safely applied (and durable, on a durable server) — drop them.
	for seq := range c.sent {
		if seq <= wel.LastSeq {
			delete(c.sent, seq)
		}
	}
	// A resumed session (e.g. WithSession across a client restart) starts
	// numbering above the server's minting floor — HighSeq, the highest
	// seq its dedup state has ever recorded for the session. LastSeq
	// would not do: it deliberately under-reports (the durable frontier
	// trails the accepted one until a barrier, and after a windowed
	// server's recovery it is the store manifest's frontier, which trails
	// the windows' own tables), and minting in
	// (LastSeq, HighSeq] would reuse seqs a dead incarnation's
	// acked-but-unflushed frames already carried — the server would ack
	// the new frames as duplicates without applying them, silently
	// dropping fresh data. The max with LastSeq is defensive: a
	// well-formed Welcome always has HighSeq >= LastSeq.
	if wel.HighSeq > c.seq {
		c.seq = wel.HighSeq
	}
	if wel.LastSeq > c.seq {
		c.seq = wel.LastSeq
	}
	// Subscriptions are per-connection server state: a fresh connection
	// has none, so any survivors of the old one end here (their callbacks
	// stop; re-Subscribe to resume).
	for seq, sub := range c.subs {
		delete(c.subs, seq)
		sub.close()
	}
	c.subs = make(map[uint64]*clientSub)
	go c.receive(r, c.gen)
	// Retransmit the ring in seq order under the resumed session, ahead
	// of any new traffic. The server recognizes every frame it already
	// applied by its seq and just re-acks it.
	if len(c.sent) > 0 {
		seqs := make([]uint64, 0, len(c.sent))
		for seq := range c.sent {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, seq := range seqs {
			fr := c.sent[seq]
			if err := c.w.WriteFrame(fr.kind, fr.body); err != nil {
				c.failLocked(fmt.Errorf("%w: retransmit: %v", ErrDisconnected, err))
				return c.err
			}
			pc := &call{kind: fr.kind}
			if c.opt.ackLatency != nil {
				pc.sentAt = time.Now()
			}
			c.pending[seq] = pc
			c.unacked++
		}
		// A ring already at the WithMaxRing bound (the reconnect burst)
		// gets its barrier right behind the retransmissions.
		c.autoFlushLocked()
		if c.dead {
			return c.err
		}
		if err := c.w.Flush(); err != nil {
			c.failLocked(fmt.Errorf("%w: retransmit: %v", ErrDisconnected, err))
			return c.err
		}
	}
	return nil
}

// errForCode maps a wire error code to the client's sentinel errors.
func errForCode(code uint64) error {
	switch code {
	case proto.ErrCodeOverload:
		return ErrOverloaded
	case proto.ErrCodeRejected:
		return ErrRejected
	case proto.ErrCodeClosed:
		return ErrServerClosed
	default:
		return ErrRejected
	}
}

// receive is the background reader of one connection (generation tags
// keep a dead connection's receiver from touching its successor's state).
// It reads only while it can take the read token and a response is owed —
// or always, once the connection has carried a Subscribe — and parks on
// rcond otherwise, so an idle connection has no reader: its death is
// noticed by the next call's own read.
func (c *Client) receive(r *proto.Reader, gen int) {
	c.mu.Lock()
	for {
		for gen == c.gen && !c.dead && (c.reading || len(c.pending) == 0 && !c.subscribed) {
			c.rcond.Wait()
		}
		if gen != c.gen || c.dead {
			c.mu.Unlock()
			return
		}
		c.reading = true
		c.mu.Unlock()
		f, err := r.Next()
		if err != nil {
			c.sessionFailed(gen, fmt.Errorf("%w: %v", ErrDisconnected, err))
			return
		}
		if fatal := c.dispatch(gen, f); fatal {
			return
		}
		c.mu.Lock()
		if gen == c.gen {
			c.reading = false
		}
	}
}

// wakeReceiverLocked signals the parked receiver when there is something
// to read and no caller holds the read token (a holder signals on its way
// out instead). Callers hold mu.
func (c *Client) wakeReceiverLocked() {
	if !c.reading && (len(c.pending) > 0 || c.subscribed) {
		c.rcond.Signal()
	}
}

// readOwn is a round trip's read under the token: it reads frames itself,
// dispatching each in place (acks of concurrent appends included), until
// its own response has been delivered to done. It then returns the token,
// handing the connection to the receiver if anything is still owed.
func (c *Client) readOwn(gen int, r *proto.Reader, done chan response) response {
	defer func() {
		c.mu.Lock()
		if gen == c.gen {
			c.reading = false
			c.wakeReceiverLocked()
		}
		c.mu.Unlock()
	}()
	for {
		f, err := r.Next()
		if err != nil {
			c.sessionFailed(gen, fmt.Errorf("%w: %v", ErrDisconnected, err))
			break
		}
		if c.dispatch(gen, f) {
			break
		}
		select {
		case resp := <-done:
			return resp
		default:
		}
	}
	// The connection is gone, and failLocked has answered every pending
	// call, this one included.
	return <-done
}

// dispatch routes one response frame; it reports true when the session is
// gone (connection-level error).
func (c *Client) dispatch(gen int, f proto.Frame) (fatal bool) {
	if f.Kind == proto.KindWindowSummary {
		// Unsolicited push, not a response: route to the subscription the
		// frame is tagged with. Frames for a cancelled subscription are
		// discarded — the server pushes until the connection closes.
		ws, err := proto.ParseWindowSummary(f.Body)
		if err != nil {
			c.sessionFailed(gen, fmt.Errorf("%w: %v", ErrDisconnected, err))
			return true
		}
		c.mu.Lock()
		var sub *clientSub
		if gen == c.gen {
			sub = c.subs[ws.Sub]
		}
		c.mu.Unlock()
		if sub != nil {
			sub.push(hhgb.WindowSummary{
				Level:        int(ws.Level),
				Start:        time.Unix(0, int64(ws.Start)),
				End:          time.Unix(0, int64(ws.End)),
				Entries:      int(ws.Entries),
				Sources:      int(ws.Sources),
				Destinations: int(ws.Destinations),
				Packets:      ws.Packets,
			})
		}
		return false
	}
	var seq uint64
	var resp response
	switch f.Kind {
	case proto.KindAck:
		s, err := proto.ParseSeq(f.Body)
		if err != nil {
			c.sessionFailed(gen, fmt.Errorf("%w: %v", ErrDisconnected, err))
			return true
		}
		seq = s
	case proto.KindLookupResp:
		s, found, v, err := proto.ParseLookupResp(f.Body)
		if err != nil {
			c.sessionFailed(gen, fmt.Errorf("%w: %v", ErrDisconnected, err))
			return true
		}
		seq, resp.found, resp.value = s, found, v
	case proto.KindTopKResp:
		s, top, err := proto.ParseTopKResp(f.Body)
		if err != nil {
			c.sessionFailed(gen, fmt.Errorf("%w: %v", ErrDisconnected, err))
			return true
		}
		seq = s
		resp.top = make([]hhgb.Ranked, len(top))
		for i, t := range top {
			resp.top[i] = hhgb.Ranked{ID: t.ID, Value: t.Value}
		}
	case proto.KindSummaryResp:
		s, sum, err := proto.ParseSummaryResp(f.Body)
		if err != nil {
			c.sessionFailed(gen, fmt.Errorf("%w: %v", ErrDisconnected, err))
			return true
		}
		seq = s
		resp.summary = hhgb.Summary{
			Entries:      int(sum.Entries),
			Sources:      int(sum.Sources),
			Destinations: int(sum.Destinations),
			TotalPackets: sum.TotalPackets,
			MaxOutDegree: sum.MaxOutDegree,
			MaxInDegree:  sum.MaxInDegree,
		}
	case proto.KindExplainResp:
		s, e, err := proto.ParseExplainResp(f.Body)
		if err != nil {
			c.sessionFailed(gen, fmt.Errorf("%w: %v", ErrDisconnected, err))
			return true
		}
		seq = s
		resp.explain = explainFromWire(e)
	case proto.KindError:
		s, code, msg, err := proto.ParseError(f.Body)
		if err != nil {
			c.sessionFailed(gen, fmt.Errorf("%w: %v", ErrDisconnected, err))
			return true
		}
		if s == 0 { // connection-level: the server is tearing us down
			c.sessionFailed(gen, fmt.Errorf("%w: code %d: %s", errForCode(code), code, msg))
			return true
		}
		seq = s
		resp.err = fmt.Errorf("%w: code %d: %s", errForCode(code), code, msg)
	default:
		c.sessionFailed(gen, fmt.Errorf("%w: unexpected frame kind %#x", ErrDisconnected, f.Kind))
		return true
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return true
	}
	call, ok := c.pending[seq]
	if !ok {
		if seq <= c.seq {
			// A response for a seq we assigned but no longer wait on: a
			// duplicate delivery (e.g. the network replayed a frame and
			// the server re-acked it). Exactly-once absorbs it silently.
			return false
		}
		// A seq we never assigned: protocol violation from the server.
		c.failLocked(fmt.Errorf("%w: response for unknown seq %d", ErrDisconnected, seq))
		return true
	}
	delete(c.pending, seq)
	if call.kind == proto.KindInsert || call.kind == proto.KindInsertAt {
		c.unacked--
		if c.opt.ackLatency != nil && !call.sentAt.IsZero() {
			c.opt.ackLatency(time.Since(call.sentAt))
		}
		if resp.err != nil {
			// The server dropped this batch (overload, validation): it
			// will never apply, so retransmitting it later could reorder
			// the stream — out of the ring, and the failure is sticky so
			// a producer loop cannot keep streaming into a black hole.
			delete(c.sent, seq)
			if c.err == nil {
				c.err = resp.err
			}
			c.lossErr = true
		} else if !c.welcome.Durable {
			// Accepted on a non-durable server: as safe as it ever gets.
			delete(c.sent, seq)
		}
		c.cond.Broadcast()
		return false
	}
	if call.kind == proto.KindFlush || call.kind == proto.KindCheckpoint {
		if resp.err == nil {
			// The barrier covers every insert acked before it, and program
			// order means every insert seq below the barrier's was acked
			// first: those frames are now fsynced on a durable server — the
			// ring can forget them.
			for s := range c.sent {
				if s < seq {
					delete(c.sent, s)
				}
			}
		}
		if call.done == nil {
			// A WithMaxRing auto-barrier: nobody waits on it. On a
			// per-request error the ring simply stays until the next
			// barrier — explicit or auto — covers it. If frames shipped
			// behind the barrier already refilled the ring to the bound,
			// chain the next one right away: a producer that went quiet
			// mid-burst would otherwise strand a full pipeline window in
			// the ring with no ship left to trigger it.
			c.autoFlush = false
			c.autoFlushLocked()
			if c.autoFlush && !c.dead {
				_ = c.flushWireLocked()
			}
			return false
		}
	}
	call.done <- resp
	return false
}

// sessionFailed marks the session dead and fails every pending call.
func (c *Client) sessionFailed(gen int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen || c.dead {
		return
	}
	c.failLocked(err)
}

// failLocked is the shared connection-death path: record the sticky
// error, fail waiting calls, wake blocked senders. Unacked insert frames
// stay in the retransmit ring — the next connection re-sends them under
// the session, so a dead connection never loses them.
func (c *Client) failLocked(err error) {
	c.dead = true
	if c.err == nil && !c.closed && !c.closing {
		c.err = err
	}
	for seq, call := range c.pending {
		delete(c.pending, seq)
		if call.kind == proto.KindInsert || call.kind == proto.KindInsertAt {
			c.unacked--
		} else if call.done != nil { // nil: a WithMaxRing auto-barrier
			call.done <- response{err: err}
		}
	}
	c.autoFlush = false
	for seq, sub := range c.subs {
		delete(c.subs, seq)
		sub.close()
	}
	if c.nc != nil {
		c.nc.Close()
	}
	c.cond.Broadcast()
	c.rcond.Broadcast()
}

// ready ensures the session is usable, reconnecting when allowed. Callers
// hold mu.
func (c *Client) readyLocked() error {
	if c.closed {
		return ErrClosed
	}
	if c.dead && c.opt.reconnect && !c.lossErr {
		// A dead connection lost nothing: resume the session, retransmit
		// the ring, carry on. A sticky batch error (overload, rejection)
		// is NOT auto-cleared — the producer must acknowledge the loss
		// via Reconnect.
		if err := c.connectLocked(); err != nil {
			return err
		}
	}
	if c.err != nil {
		return c.err
	}
	if c.dead {
		return ErrDisconnected
	}
	return nil
}

// flusher ships partial buffers on the ticker.
func (c *Client) flusher() {
	for {
		select {
		case <-c.stop:
			return
		case <-c.tick.C:
			c.mu.Lock()
			if !c.closed && !c.dead && c.err == nil && len(c.src) > 0 {
				if err := c.shipBufferLocked(); err == nil {
					_ = c.flushWireLocked()
				}
			}
			c.mu.Unlock()
		}
	}
}

// handshake returns the current connection's Welcome; every reconnect
// rewrites it (and a different server may report another shard count).
func (c *Client) handshake() proto.Welcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.welcome
}

// Dim returns the server matrix's dimension (from the handshake).
func (c *Client) Dim() uint64 { return c.handshake().Dim }

// Shards returns the server matrix's shard count (from the latest
// handshake).
func (c *Client) Shards() int { return int(c.handshake().Shards) }

// Durable reports whether the server write-ahead-logs inserts: if true,
// a nil Flush means everything appended before it survives a server
// crash.
func (c *Client) Durable() bool { return c.handshake().Durable }

// Window returns the server's level-0 window duration (from the
// handshake); 0 means the server is flat. On a windowed server use
// AppendAt/AppendWeightedAt — plain Append is refused on both ends.
func (c *Client) Window() time.Duration { return time.Duration(c.handshake().Window) }

// Reconnect explicitly restarts a failed connection — a dead one, or a
// live one poisoned by a sticky batch error (which WithReconnect alone
// never clears): calling it acknowledges any definitive batch loss and
// resumes the session, retransmitting the ring. It is a no-op on a
// healthy connection and fails with ErrClosed after Close.
func (c *Client) Reconnect() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if !c.dead && c.err == nil {
		return nil
	}
	if !c.dead {
		c.failLocked(c.err) // tear the poisoned connection down first
	}
	c.lossErr = false // calling Reconnect acknowledges the loss
	return c.connectLocked()
}

// Session returns the client's exactly-once session identifier — the one
// from WithSession, or the random one Dial minted. Persist it (plus your
// own commit point) to resume the stream from another process.
func (c *Client) Session() string { return c.session }

// Unacked reports the insert frames currently in the retransmit ring:
// sent, but not yet known safe on the server (unacked; or acked but not
// yet covered by a Flush/Checkpoint on a durable server). Zero after a
// successful Flush means everything this client ever appended is applied
// — and durable, on a durable server.
func (c *Client) Unacked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sent)
}

// Err returns the sticky error, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Append buffers a batch of (src, dst) observations with weight 1 each,
// shipping full frames as the buffer crosses the flush threshold. It
// blocks only when the pipelining window is full (the server is behind).
// The slices are copied before the call returns. On a windowed server it
// fails — use AppendAt, which carries the event timestamp the server
// routes by.
//
// Append is all-or-nothing: a non-nil error means this call's entries
// were NOT taken (retrying the same batch is safe), while nil means the
// session owns them — buffered, shipped, or riding the retransmit ring —
// even if the connection died mid-call (the failure surfaces on the next
// call; reconnect replays whatever is in flight). Never re-send a batch
// Append accepted: the copy would carry fresh seqs the server cannot
// deduplicate.
func (c *Client) Append(src, dst []uint64) error {
	return c.append(src, dst, nil, 0, false)
}

// AppendWeighted buffers a batch of weighted observations; see Append.
func (c *Client) AppendWeighted(src, dst, weight []uint64) error {
	if len(weight) != len(src) {
		return fmt.Errorf("hhgbclient: src/weight lengths %d/%d differ", len(src), len(weight))
	}
	return c.append(src, dst, weight, 0, false)
}

// AppendAt buffers a batch of (src, dst) observations with weight 1 each,
// all stamped with the event time ts, for a windowed server. Entries
// whose timestamps share a server window accumulate into one frame; a
// timestamp crossing a window boundary ships the buffer first, so every
// frame lands in exactly one window. Appends behind the server's seal
// frontier surface ErrRejected (sticky, like any dropped batch).
func (c *Client) AppendAt(ts time.Time, src, dst []uint64) error {
	return c.append(src, dst, nil, ts.UnixNano(), true)
}

// AppendWeightedAt buffers a batch of weighted observations at event time
// ts; see AppendAt.
func (c *Client) AppendWeightedAt(ts time.Time, src, dst, weight []uint64) error {
	if len(weight) != len(src) {
		return fmt.Errorf("hhgbclient: src/weight lengths %d/%d differ", len(src), len(weight))
	}
	return c.append(src, dst, weight, ts.UnixNano(), true)
}

func (c *Client) append(src, dst, weight []uint64, ts int64, timed bool) error {
	if len(src) != len(dst) {
		return fmt.Errorf("hhgbclient: src/dst lengths %d/%d differ", len(src), len(dst))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.readyLocked(); err != nil {
		return err
	}
	if timed != (c.welcome.Window != 0) {
		if timed {
			return fmt.Errorf("hhgbclient: server is not windowed; use Append")
		}
		return fmt.Errorf("hhgbclient: server is windowed; use AppendAt")
	}
	if timed {
		if ts < 0 {
			return fmt.Errorf("hhgbclient: negative timestamp %d", ts)
		}
		bucket := ts - ts%int64(c.welcome.Window)
		if len(c.src) > 0 && bucket != c.bufTS {
			// The batch starts a new window: everything buffered belongs
			// to the previous one and must ride its own frame.
			for len(c.src) > 0 {
				if err := c.shipBufferLocked(); err != nil {
					return err
				}
			}
		}
		c.bufTS = bucket
		c.bufTimed = true
	}
	c.src = append(c.src, src...)
	c.dst = append(c.dst, dst...)
	if weight == nil {
		for range src {
			c.wgt = append(c.wgt, 1)
		}
	} else {
		c.wgt = append(c.wgt, weight...)
	}
	// The buffering above is the transactional boundary: an error before
	// it means this call consumed nothing (safe to retry verbatim), while
	// from here on the session owns the entries, so ship failures are
	// filtered through bufferedShipErr.
	for len(c.src) >= c.opt.flushEntries {
		if err := c.shipBufferLocked(); err != nil {
			return c.bufferedShipErr(err)
		}
	}
	return c.bufferedShipErr(c.flushWireLocked())
}

// bufferedShipErr filters a ship failure that struck after the calling
// append had already buffered its entries. A dying session is not a loss
// at that point — every shipped frame sits in the retransmit ring and
// the remainder stays in the local buffer, both replayed on the next
// connection — and reporting it as the append's error would tempt the
// caller into re-sending entries the session still owns, double-counting
// them under fresh seqs that dedup cannot catch. The failure stays
// sticky and surfaces on the next call's readyLocked instead. Close is
// different: the caller tore the session down and must see that.
func (c *Client) bufferedShipErr(err error) error {
	if err == nil || errors.Is(err, ErrClosed) {
		return err
	}
	return nil
}

// shipBufferLocked sends up to one threshold-sized insert frame from the
// local buffer, waiting for the pipelining window. Callers hold mu.
func (c *Client) shipBufferLocked() error {
	if len(c.src) == 0 {
		return nil
	}
	for c.unacked >= c.opt.maxPending && c.err == nil && !c.dead && !c.closed {
		c.cond.Wait()
	}
	if c.closed {
		return ErrClosed
	}
	if c.err != nil {
		return c.err
	}
	if c.dead {
		return ErrDisconnected
	}
	// Size the frame only AFTER the window wait: mu was released inside
	// cond.Wait, so a concurrent shipper (the interval flusher, another
	// Append) may have drained the buffer — a stale count would re-slice
	// past len and re-send already-shipped entries.
	n := len(c.src)
	if n == 0 {
		return nil
	}
	if n > c.opt.flushEntries {
		n = c.opt.flushEntries
	}
	c.seq++
	seq := c.seq
	kind := proto.KindInsert
	var body []byte
	var err error
	if c.bufTimed {
		kind = proto.KindInsertAt
		body, err = proto.AppendInsertAt(nil, seq, uint64(c.bufTS), c.src[:n], c.dst[:n], c.wgt[:n])
	} else {
		body, err = proto.AppendInsert(nil, seq, c.src[:n], c.dst[:n], c.wgt[:n])
	}
	if err != nil {
		return err
	}
	// Into the retransmit ring BEFORE the write: if the write tears the
	// connection, the frame's fate is simply "unacked" and the next
	// connection retransmits it — a dead socket loses nothing.
	c.sent[seq] = sentFrame{kind: kind, body: body}
	c.src = c.src[:copy(c.src, c.src[n:])]
	c.dst = c.dst[:copy(c.dst, c.dst[n:])]
	c.wgt = c.wgt[:copy(c.wgt, c.wgt[n:])]
	if err := c.w.WriteFrame(kind, body); err != nil {
		c.failLocked(fmt.Errorf("%w: %v", ErrDisconnected, err))
		return nil
	}
	pc := &call{kind: kind}
	if c.opt.ackLatency != nil {
		pc.sentAt = time.Now()
	}
	c.pending[seq] = pc
	c.unacked++
	c.autoFlushLocked()
	c.wakeReceiverLocked()
	return nil
}

// autoFlushLocked pipelines an automatic Flush barrier when the
// retransmit ring has reached the WithMaxRing bound on a durable server
// (elsewhere the ring retires on insert acks and needs no barrier). The
// barrier is a pending call with no waiter — its ack trims the ring in
// dispatch and nothing blocks on it. A write failure takes the usual
// connection-death path; the ring itself is untouched either way. Callers
// hold mu.
func (c *Client) autoFlushLocked() {
	if !c.welcome.Durable || c.autoFlush || len(c.sent) < c.opt.maxRing {
		return
	}
	c.seq++
	seq := c.seq
	if err := c.w.WriteFrame(proto.KindFlush, proto.AppendSeq(nil, seq)); err != nil {
		c.failLocked(fmt.Errorf("%w: %v", ErrDisconnected, err))
		return
	}
	c.pending[seq] = &call{kind: proto.KindFlush}
	c.autoFlush = true
}

// flushWireLocked pushes buffered frames to the socket. Callers hold mu.
func (c *Client) flushWireLocked() error {
	if err := c.w.Flush(); err != nil {
		c.failLocked(fmt.Errorf("%w: %v", ErrDisconnected, err))
		return c.err
	}
	return nil
}

// roundTrip ships the local buffer, sends one request frame, and waits
// for its response. A call that is alone on the connection reads the
// response itself (readOwn) instead of waiting for the receiver to hand it
// over: that hop is a goroutine wake-up on every idle round trip.
func (c *Client) roundTrip(kind byte, build func(seq uint64) []byte) (response, error) {
	c.mu.Lock()
	if err := c.readyLocked(); err != nil {
		c.mu.Unlock()
		return response{}, err
	}
	for len(c.src) > 0 {
		if err := c.shipBufferLocked(); err != nil {
			c.mu.Unlock()
			return response{}, err
		}
	}
	c.seq++
	seq := c.seq
	call := &call{kind: kind, done: make(chan response, 1)}
	if err := c.w.WriteFrame(kind, build(seq)); err != nil {
		c.failLocked(fmt.Errorf("%w: %v", ErrDisconnected, err))
		err := c.err
		c.mu.Unlock()
		return response{}, err
	}
	c.pending[seq] = call
	if err := c.flushWireLocked(); err != nil {
		c.mu.Unlock()
		return response{}, err
	}
	if len(c.pending) > 1 || c.reading || c.subscribed {
		c.wakeReceiverLocked()
		c.mu.Unlock()
		resp := <-call.done
		return resp, resp.err
	}
	c.reading = true
	gen, r := c.gen, c.r
	c.mu.Unlock()
	resp := c.readOwn(gen, r, call.done)
	return resp, resp.err
}

// Flush ships the local buffer and waits for the server's flush ack: on
// return every batch appended before the call is applied to the matrix
// and, on a durable server, fsynced. It then reports any sticky error —
// so a nil Flush additionally certifies that no earlier pipelined batch
// was dropped.
func (c *Client) Flush() error {
	if _, err := c.roundTrip(proto.KindFlush, func(seq uint64) []byte {
		return proto.AppendSeq(nil, seq)
	}); err != nil {
		return err
	}
	return c.Err()
}

// Checkpoint is Flush plus server-side log compaction (snapshot +
// truncate); it fails with ErrRejected on a non-durable server.
func (c *Client) Checkpoint() error {
	if _, err := c.roundTrip(proto.KindCheckpoint, func(seq uint64) []byte {
		return proto.AppendSeq(nil, seq)
	}); err != nil {
		return err
	}
	return c.Err()
}

// query runs one read op on the server — as itself, or with explain set,
// wrapped in an Explain frame (the server executes the op for real and
// answers with its plan-and-timing trailer instead of the result). t0 and
// t1 bound a Range op's event time and are ignored by the flat ops. Like
// every round trip it first ships the local buffer, so entries this
// client appended are visible to it.
func (c *Client) query(explain bool, q proto.Query, t0, t1 time.Time) (response, error) {
	kind := q.Op
	if explain {
		kind = proto.KindExplain
	}
	if q.Ranged() {
		var err error
		if q.T0, q.T1, err = tsRange(t0, t1); err != nil {
			return response{}, err
		}
	}
	// Validate the request up front so the build closure below cannot fail
	// (roundTrip's builder has no error path).
	if _, err := proto.AppendQuery(nil, kind, q); err != nil {
		return response{}, err
	}
	build := func(seq uint64) []byte {
		q.Seq = seq
		body, _ := proto.AppendQuery(nil, kind, q)
		return body
	}
	resp, err := c.roundTrip(kind, build)
	if err != nil && c.opt.reconnect && errors.Is(err, ErrDisconnected) {
		// Reads are idempotent: one that met a dead connection, most often
		// one that died idle since the last call, runs once more on a fresh
		// one, as database/sql retries on driver.ErrBadConn.
		resp, err = c.roundTrip(kind, build)
	}
	return resp, err
}

// allTime is the bounds argument of the flat ops: no event-time range.
var allTime time.Time

// Lookup returns the accumulated weight for one (src, dst) pair.
func (c *Client) Lookup(src, dst uint64) (uint64, bool, error) {
	resp, err := c.query(false, proto.Query{Op: proto.KindLookup, Src: src, Dst: dst}, allTime, allTime)
	return resp.value, resp.found, err
}

// TopSources returns the server's k sources with the most total traffic.
func (c *Client) TopSources(k int) ([]hhgb.Ranked, error) {
	resp, err := c.query(false, proto.Query{Op: proto.KindTopK, Axis: proto.AxisSources, K: uint64(k)}, allTime, allTime)
	return resp.top, err
}

// TopDestinations returns the k destinations with the most total traffic.
func (c *Client) TopDestinations(k int) ([]hhgb.Ranked, error) {
	resp, err := c.query(false, proto.Query{Op: proto.KindTopK, Axis: proto.AxisDestinations, K: uint64(k)}, allTime, allTime)
	return resp.top, err
}

// Summary returns the server matrix's aggregate statistics (on a windowed
// server: over everything retained).
func (c *Client) Summary() (hhgb.Summary, error) {
	resp, err := c.query(false, proto.Query{Op: proto.KindSummary}, allTime, allTime)
	return resp.summary, err
}

// tsRange validates and converts a client-side event-time range. UnixNano
// overflow (times outside 1678–2262) wraps negative, so the sign and
// order checks also reject out-of-range inputs.
func tsRange(t0, t1 time.Time) (uint64, uint64, error) {
	a, b := t0.UnixNano(), t1.UnixNano()
	if a < 0 || b <= a {
		return 0, 0, fmt.Errorf("hhgbclient: bad event-time range [%v, %v)", t0, t1)
	}
	return uint64(a), uint64(b), nil
}

// RangeSummary returns the aggregate statistics of the traffic in
// [t0, t1) on a windowed server: only the windows covering the range are
// touched.
func (c *Client) RangeSummary(t0, t1 time.Time) (hhgb.Summary, error) {
	resp, err := c.query(false, proto.Query{Op: proto.KindRangeSummary}, t0, t1)
	return resp.summary, err
}

// RangeTopSources returns the k sources with the most traffic in [t0, t1).
func (c *Client) RangeTopSources(k int, t0, t1 time.Time) ([]hhgb.Ranked, error) {
	resp, err := c.query(false, proto.Query{Op: proto.KindRangeTopK, Axis: proto.AxisSources, K: uint64(k)}, t0, t1)
	return resp.top, err
}

// RangeTopDestinations returns the k destinations with the most traffic
// in [t0, t1).
func (c *Client) RangeTopDestinations(k int, t0, t1 time.Time) ([]hhgb.Ranked, error) {
	resp, err := c.query(false, proto.Query{Op: proto.KindRangeTopK, Axis: proto.AxisDestinations, K: uint64(k)}, t0, t1)
	return resp.top, err
}

// RangeLookup returns the accumulated weight for one (src, dst) pair over
// [t0, t1).
func (c *Client) RangeLookup(src, dst uint64, t0, t1 time.Time) (uint64, bool, error) {
	resp, err := c.query(false, proto.Query{Op: proto.KindRangeLookup, Src: src, Dst: dst}, t0, t1)
	return resp.value, resp.found, err
}

// ExplainLeg is one window the server's query plan fanned out to: its
// hierarchy level and event-time span, how many per-shard tasks the leg
// issued, and how long it ran. On a flat (non-windowed) server a query
// runs as a single leg with a zero span.
type ExplainLeg struct {
	Level    int
	Span     hhgb.TimeSpan
	Shards   int
	Duration time.Duration
}

// Explain is the server's query plan and timing trailer for one read,
// produced by the Explain* methods: the op that ran, the exact window
// cover it was served from (the same cover a plain query over the same
// range uses — bit for bit), the slices of the range no retained window
// could serve, end-to-end execution time, and the shard pushdown-cache
// traffic observed around the query. The cache counters are server-global
// and therefore best-effort under concurrent load.
type Explain struct {
	// Op labels the wrapped query: "lookup", "topk", "summary", or their
	// "range_" forms.
	Op string
	// Total is the server-side execution time: plan resolution through the
	// last merged leg, excluding decode/queue/encode.
	Total time.Duration
	// Legs is the served cover in time order.
	Legs []ExplainLeg
	// Uncovered lists the slices of the range no retained window could
	// tile: data expired at the requested resolution, or never ingested.
	Uncovered []hhgb.TimeSpan
	// CacheHits and CacheMisses count shard pushdown-cache traffic during
	// the query (best-effort: concurrent queries share the counters).
	CacheHits   uint64
	CacheMisses uint64
}

// explainOpLabel names a wrapped query kind for Explain.Op.
func explainOpLabel(op byte) string {
	switch op {
	case proto.KindLookup:
		return "lookup"
	case proto.KindTopK:
		return "topk"
	case proto.KindSummary:
		return "summary"
	case proto.KindRangeLookup:
		return "range_lookup"
	case proto.KindRangeTopK:
		return "range_topk"
	case proto.KindRangeSummary:
		return "range_summary"
	default:
		return fmt.Sprintf("op_%#x", op)
	}
}

// explainFromWire converts the wire trailer to the public form.
func explainFromWire(e proto.Explain) Explain {
	out := Explain{
		Op:          explainOpLabel(e.Op),
		Total:       time.Duration(e.TotalNanos),
		CacheHits:   e.CacheHits,
		CacheMisses: e.CacheMisses,
	}
	if len(e.Legs) > 0 {
		out.Legs = make([]ExplainLeg, len(e.Legs))
		for i, l := range e.Legs {
			out.Legs[i] = ExplainLeg{
				Level:    int(l.Level),
				Span:     hhgb.TimeSpan{Start: time.Unix(0, int64(l.Start)), End: time.Unix(0, int64(l.End))},
				Shards:   int(l.Shards),
				Duration: time.Duration(l.DurNanos),
			}
		}
	}
	if len(e.Uncovered) > 0 {
		out.Uncovered = make([]hhgb.TimeSpan, len(e.Uncovered))
		for i, s := range e.Uncovered {
			out.Uncovered[i] = hhgb.TimeSpan{Start: time.Unix(0, int64(s.Start)), End: time.Unix(0, int64(s.End))}
		}
	}
	return out
}

// ExplainLookup explains a Lookup(src, dst): the plan and timings the
// server would use to serve it, without returning the value.
func (c *Client) ExplainLookup(src, dst uint64) (Explain, error) {
	resp, err := c.query(true, proto.Query{Op: proto.KindLookup, Src: src, Dst: dst}, allTime, allTime)
	return resp.explain, err
}

// ExplainTopSources explains a TopSources(k).
func (c *Client) ExplainTopSources(k int) (Explain, error) {
	resp, err := c.query(true, proto.Query{Op: proto.KindTopK, Axis: proto.AxisSources, K: uint64(k)}, allTime, allTime)
	return resp.explain, err
}

// ExplainTopDestinations explains a TopDestinations(k).
func (c *Client) ExplainTopDestinations(k int) (Explain, error) {
	resp, err := c.query(true, proto.Query{Op: proto.KindTopK, Axis: proto.AxisDestinations, K: uint64(k)}, allTime, allTime)
	return resp.explain, err
}

// ExplainSummary explains a Summary().
func (c *Client) ExplainSummary() (Explain, error) {
	resp, err := c.query(true, proto.Query{Op: proto.KindSummary}, allTime, allTime)
	return resp.explain, err
}

// ExplainRangeLookup explains a RangeLookup(src, dst, t0, t1): which
// windows the cover picks, what part of the range is uncovered, and how
// long each leg ran.
func (c *Client) ExplainRangeLookup(src, dst uint64, t0, t1 time.Time) (Explain, error) {
	resp, err := c.query(true, proto.Query{Op: proto.KindRangeLookup, Src: src, Dst: dst}, t0, t1)
	return resp.explain, err
}

// ExplainRangeTopSources explains a RangeTopSources(k, t0, t1).
func (c *Client) ExplainRangeTopSources(k int, t0, t1 time.Time) (Explain, error) {
	resp, err := c.query(true, proto.Query{Op: proto.KindRangeTopK, Axis: proto.AxisSources, K: uint64(k)}, t0, t1)
	return resp.explain, err
}

// ExplainRangeTopDestinations explains a RangeTopDestinations(k, t0, t1).
func (c *Client) ExplainRangeTopDestinations(k int, t0, t1 time.Time) (Explain, error) {
	resp, err := c.query(true, proto.Query{Op: proto.KindRangeTopK, Axis: proto.AxisDestinations, K: uint64(k)}, t0, t1)
	return resp.explain, err
}

// ExplainRangeSummary explains a RangeSummary(t0, t1).
func (c *Client) ExplainRangeSummary(t0, t1 time.Time) (Explain, error) {
	resp, err := c.query(true, proto.Query{Op: proto.KindRangeSummary}, t0, t1)
	return resp.explain, err
}

// SubscribeAllLevels selects every hierarchy level in Subscribe.
const SubscribeAllLevels = -1

// clientSub delivers one subscription's summaries to its callback from a
// dedicated goroutine, preserving seal order without ever blocking the
// goroutine reading the connection.
type clientSub struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []hhgb.WindowSummary
	closed bool
}

func newClientSub(fn func(hhgb.WindowSummary)) *clientSub {
	s := &clientSub{}
	s.cond = sync.NewCond(&s.mu)
	go func() {
		for {
			s.mu.Lock()
			for len(s.queue) == 0 && !s.closed {
				s.cond.Wait()
			}
			if len(s.queue) == 0 {
				s.mu.Unlock()
				return
			}
			ws := s.queue[0]
			s.queue = s.queue[1:]
			s.mu.Unlock()
			fn(ws)
		}
	}()
	return s
}

func (s *clientSub) push(ws hhgb.WindowSummary) {
	s.mu.Lock()
	if !s.closed {
		s.queue = append(s.queue, ws)
		s.cond.Signal()
	}
	s.mu.Unlock()
}

func (s *clientSub) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Subscribe asks a windowed server to push a summary for every window it
// seals at the given level (SubscribeAllLevels = every level). fn runs on
// a dedicated goroutine, one call per sealed window, in seal order; it
// must not call back into the client's Close. The returned cancel stops
// the callbacks (after any already-queued summaries drain; the server
// keeps pushing until the connection closes — frames for a cancelled
// subscription are discarded). Subscriptions do not survive reconnects:
// a new connection starts with none, so re-Subscribe after Reconnect.
func (c *Client) Subscribe(level int, fn func(hhgb.WindowSummary)) (cancel func(), err error) {
	if fn == nil {
		return nil, fmt.Errorf("hhgbclient: Subscribe needs a callback")
	}
	if level < SubscribeAllLevels || level >= int(proto.SubscribeAllLevels) {
		return nil, fmt.Errorf("hhgbclient: bad subscription level %d", level)
	}
	lv := proto.SubscribeAllLevels
	if level >= 0 {
		lv = byte(level)
	}
	c.mu.Lock()
	if err := c.readyLocked(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	if c.welcome.Window == 0 {
		c.mu.Unlock()
		return nil, fmt.Errorf("hhgbclient: server is not windowed")
	}
	// Register the handler BEFORE the frame ships: the server's first
	// summary may arrive right behind the ack, and its reader must
	// already know where to route it.
	c.seq++
	seq := c.seq
	sub := newClientSub(fn)
	c.subs[seq] = sub
	c.subscribed = true
	call := &call{kind: proto.KindSubscribe, done: make(chan response, 1)}
	if err := c.w.WriteFrame(proto.KindSubscribe, proto.AppendSubscribe(nil, seq, lv)); err != nil {
		c.failLocked(fmt.Errorf("%w: %v", ErrDisconnected, err))
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.pending[seq] = call
	if err := c.flushWireLocked(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.wakeReceiverLocked()
	c.mu.Unlock()
	resp := <-call.done
	if resp.err != nil {
		c.mu.Lock()
		delete(c.subs, seq)
		c.mu.Unlock()
		sub.close()
		return nil, resp.err
	}
	return func() {
		c.mu.Lock()
		delete(c.subs, seq)
		c.mu.Unlock()
		sub.close()
	}, nil
}

// Close ships the local buffer, exchanges Goodbye (so the server drains
// this connection's entries), and tears the client down. A dead
// connection closes locally without the exchange. Close is idempotent;
// it returns the sticky error, if any.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed || c.closing {
		// Idempotent, and safe concurrently: exactly one caller runs the
		// goodbye + teardown below.
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.closing = true
	c.mu.Unlock()

	var goodbyeErr error
	if c.Err() == nil {
		_, goodbyeErr = c.roundTrip(proto.KindGoodbye, func(seq uint64) []byte {
			return proto.AppendSeq(nil, seq)
		})
	}

	c.mu.Lock()
	c.closed = true
	if c.tick != nil {
		c.tick.Stop()
	}
	close(c.stop)
	// Tear down through the shared death path: it also answers any call
	// still pending (with ErrClosed — the sticky error is left alone once
	// closed), which a caller reading under the token relies on.
	c.failLocked(ErrClosed)
	err := c.err
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if goodbyeErr != nil && !errors.Is(goodbyeErr, ErrDisconnected) {
		return goodbyeErr
	}
	return nil
}
