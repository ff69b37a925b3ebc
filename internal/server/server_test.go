package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"hhgb"
	"hhgb/internal/proto"
)

// startServer runs a server over a fresh matrix on a loopback listener and
// returns the dial address plus a cleanup-registered handle.
func startServer(t *testing.T, dim uint64, cfg Config) (*Server, *hhgb.Sharded, string) {
	t.Helper()
	m, err := hhgb.NewSharded(dim, hhgb.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	cfg.Matrix = m
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, m, ln.Addr().String()
}

// rawConn is a minimal hand-rolled protocol client for exercising the
// server below the hhgbclient conveniences.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	r  *proto.Reader
	w  *proto.Writer
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc, r: proto.NewReader(nc), w: proto.NewWriter(nc)}
}

func (c *rawConn) send(kind byte, body []byte) {
	c.t.Helper()
	if err := c.w.WriteFrame(kind, body); err != nil {
		c.t.Fatal(err)
	}
	if err := c.w.Flush(); err != nil {
		c.t.Fatal(err)
	}
}

// query sends one query frame of the given kind (a query kind, or
// KindExplain wrapping q.Op).
func (c *rawConn) query(kind byte, q proto.Query) {
	c.t.Helper()
	body, err := proto.AppendQuery(nil, kind, q)
	if err != nil {
		c.t.Fatal(err)
	}
	c.send(kind, body)
}

func (c *rawConn) next() proto.Frame {
	c.t.Helper()
	f, err := c.r.Next()
	if err != nil {
		c.t.Fatalf("Next: %v", err)
	}
	return f
}

// rawSessions numbers the sessions handshake mints, so no two connections
// in the package's tests share one.
var rawSessions atomic.Uint64

// handshake opens the connection under a fresh session of its own.
func (c *rawConn) handshake() proto.Welcome {
	c.t.Helper()
	return c.handshakeSession(fmt.Sprintf("raw-%d", rawSessions.Add(1)), 0)
}

func (c *rawConn) handshakeSession(session string, resumeSeq uint64) proto.Welcome {
	c.t.Helper()
	c.send(proto.KindHello, proto.AppendHello(nil, session, resumeSeq))
	f := c.next()
	if f.Kind != proto.KindWelcome {
		c.t.Fatalf("handshake reply kind %#x", f.Kind)
	}
	w, err := proto.ParseWelcome(f.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return w
}

func (c *rawConn) expectAck(seq uint64) {
	c.t.Helper()
	f := c.next()
	if f.Kind == proto.KindError {
		_, code, msg, _ := proto.ParseError(f.Body)
		c.t.Fatalf("want ack %d, got error code %d: %s", seq, code, msg)
	}
	if f.Kind != proto.KindAck {
		c.t.Fatalf("want ack, got kind %#x", f.Kind)
	}
	got, err := proto.ParseSeq(f.Body)
	if err != nil || got != seq {
		c.t.Fatalf("ack seq = %d, %v; want %d", got, err, seq)
	}
}

func TestHandshakeAndIngestQueryRoundTrip(t *testing.T) {
	_, _, addr := startServer(t, 1<<20, Config{})
	c := dialRaw(t, addr)
	w := c.handshake()
	if w.Dim != 1<<20 || w.Shards != 2 || w.Durable {
		t.Fatalf("welcome = %+v", w)
	}

	body, err := proto.AppendInsert(nil, 1, []uint64{7, 7, 9}, []uint64{8, 8, 10}, []uint64{1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	c.send(proto.KindInsert, body)
	c.expectAck(1)
	c.send(proto.KindFlush, proto.AppendSeq(nil, 2))
	c.expectAck(2)

	c.query(proto.KindLookup, proto.Query{Seq: 3, Src: 7, Dst: 8})
	f := c.next()
	if f.Kind != proto.KindLookupResp {
		t.Fatalf("lookup reply kind %#x", f.Kind)
	}
	seq, found, v, err := proto.ParseLookupResp(f.Body)
	if err != nil || seq != 3 || !found || v != 3 {
		t.Fatalf("lookup = seq %d, found %v, v %d, err %v", seq, found, v, err)
	}

	c.query(proto.KindSummary, proto.Query{Seq: 4})
	f = c.next()
	if f.Kind != proto.KindSummaryResp {
		t.Fatalf("summary reply kind %#x", f.Kind)
	}
	_, sum, err := proto.ParseSummaryResp(f.Body)
	if err != nil || sum.Entries != 2 || sum.TotalPackets != 8 {
		t.Fatalf("summary = %+v, %v", sum, err)
	}

	c.query(proto.KindTopK, proto.Query{Seq: 5, Axis: proto.AxisSources, K: 1})
	f = c.next()
	if f.Kind != proto.KindTopKResp {
		t.Fatalf("topk reply kind %#x", f.Kind)
	}
	_, top, err := proto.ParseTopKResp(f.Body)
	if err != nil || len(top) != 1 || top[0].ID != 9 || top[0].Value != 5 {
		t.Fatalf("topk = %v, %v", top, err)
	}

	c.send(proto.KindGoodbye, proto.AppendSeq(nil, 6))
	c.expectAck(6)
	if _, err := c.r.Next(); err != io.EOF {
		t.Fatalf("after goodbye = %v, want io.EOF", err)
	}
}

func TestVersionMismatchRefused(t *testing.T) {
	_, _, addr := startServer(t, 1<<10, Config{})
	// A pre-session client's whole Hello: magic + a foreign version, no
	// session fields. The server must answer with a version refusal, not
	// a malformed-frame error.
	preSession := binary.BigEndian.AppendUint32(nil, proto.Magic)
	preSession = binary.AppendUvarint(preSession, 99)
	// A version 3 Hello has the current Hello's shape, but its batches
	// would carry the varint record: refused the same way.
	v3 := binary.BigEndian.AppendUint32(nil, proto.Magic)
	v3 = binary.AppendUvarint(v3, 3)
	v3 = binary.AppendUvarint(v3, 4)
	v3 = append(v3, "sess"...)
	v3 = binary.AppendUvarint(v3, 0)
	for _, body := range [][]byte{preSession, v3} {
		c := dialRaw(t, addr)
		c.send(proto.KindHello, body)
		f := c.next()
		if f.Kind != proto.KindError {
			t.Fatalf("reply kind %#x, want error", f.Kind)
		}
		seq, code, msg, err := proto.ParseError(f.Body)
		if err != nil || seq != 0 || code != proto.ErrCodeVersion {
			t.Fatalf("error = seq %d code %d %q err %v", seq, code, msg, err)
		}
		if _, err := c.r.Next(); err != io.EOF {
			t.Fatalf("after version error = %v, want io.EOF", err)
		}
	}
}

// TestHelloWithoutSessionRefused: every connection is an exactly-once
// session, so a Hello with an empty session id is answered with a malformed
// refusal and the connection closes, never with a Welcome.
func TestHelloWithoutSessionRefused(t *testing.T) {
	_, _, addr := startServer(t, 1<<10, Config{})
	c := dialRaw(t, addr)
	c.send(proto.KindHello, proto.AppendHello(nil, "", 0))
	f := c.next()
	if f.Kind != proto.KindError {
		t.Fatalf("reply kind %#x, want error", f.Kind)
	}
	seq, code, msg, err := proto.ParseError(f.Body)
	if err != nil || seq != 0 || code != proto.ErrCodeMalformed {
		t.Fatalf("error = seq %d code %d %q err %v", seq, code, msg, err)
	}
	if _, err := c.r.Next(); err != io.EOF {
		t.Fatalf("after refusal = %v, want io.EOF", err)
	}
}

func TestMalformedFrameTearsConnection(t *testing.T) {
	_, _, addr := startServer(t, 1<<10, Config{})
	c := dialRaw(t, addr)
	c.handshake()
	c.send(proto.KindInsert, []byte{}) // truncated insert body
	f := c.next()
	if f.Kind != proto.KindError {
		t.Fatalf("reply kind %#x, want error", f.Kind)
	}
	seq, code, _, err := proto.ParseError(f.Body)
	if err != nil || seq != 0 || code != proto.ErrCodeMalformed {
		t.Fatalf("error = seq %d code %d err %v", seq, code, err)
	}
	if _, err := c.r.Next(); err != io.EOF {
		t.Fatalf("after malformed = %v, want io.EOF", err)
	}
}

func TestOutOfBoundsInsertRejected(t *testing.T) {
	_, _, addr := startServer(t, 16, Config{})
	c := dialRaw(t, addr)
	c.handshake()
	body, err := proto.AppendInsert(nil, 1, []uint64{99}, []uint64{0}, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	c.send(proto.KindInsert, body)
	f := c.next()
	seq, code, _, perr := proto.ParseError(f.Body)
	if f.Kind != proto.KindError || perr != nil || seq != 1 || code != proto.ErrCodeRejected {
		t.Fatalf("reply = kind %#x seq %d code %d err %v", f.Kind, seq, code, perr)
	}
	// The connection survives a rejected batch.
	c.send(proto.KindFlush, proto.AppendSeq(nil, 2))
	c.expectAck(2)
}

func TestOverloadErrorFrame(t *testing.T) {
	s, _, addr := startServer(t, 1<<10, Config{MaxInFlight: 4})
	c := dialRaw(t, addr)
	c.handshake()
	body, err := proto.AppendInsert(nil, 1, make([]uint64, 8), make([]uint64, 8), make([]uint64, 8))
	if err != nil {
		t.Fatal(err)
	}
	c.send(proto.KindInsert, body)
	f := c.next()
	seq, code, _, perr := proto.ParseError(f.Body)
	if f.Kind != proto.KindError || perr != nil || seq != 1 || code != proto.ErrCodeOverload {
		t.Fatalf("reply = kind %#x seq %d code %d err %v", f.Kind, seq, code, perr)
	}
	if got := s.Stats().Overloads; got != 1 {
		t.Fatalf("Stats().Overloads = %d, want 1", got)
	}
	// A batch within the budget still lands.
	small, err := proto.AppendInsert(nil, 2, []uint64{1}, []uint64{2}, []uint64{3})
	if err != nil {
		t.Fatal(err)
	}
	c.send(proto.KindInsert, small)
	c.expectAck(2)
}

func TestCheckpointWithoutDurabilityRejected(t *testing.T) {
	_, _, addr := startServer(t, 1<<10, Config{})
	c := dialRaw(t, addr)
	c.handshake()
	c.send(proto.KindCheckpoint, proto.AppendSeq(nil, 1))
	f := c.next()
	seq, code, _, perr := proto.ParseError(f.Body)
	if f.Kind != proto.KindError || perr != nil || seq != 1 || code != proto.ErrCodeRejected {
		t.Fatalf("reply = kind %#x seq %d code %d err %v", f.Kind, seq, code, perr)
	}
}

// TestGracefulDrain proves Close's contract: every acked insert is in the
// matrix after Close returns, even though the client never flushed.
func TestGracefulDrain(t *testing.T) {
	s, m, addr := startServer(t, 1<<20, Config{})
	c := dialRaw(t, addr)
	c.handshake()
	const batches = 10
	for i := uint64(1); i <= batches; i++ {
		body, err := proto.AppendInsert(nil, i, []uint64{i}, []uint64{i + 1}, []uint64{1})
		if err != nil {
			t.Fatal(err)
		}
		c.send(proto.KindInsert, body)
		c.expectAck(i)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	n, err := m.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if n != batches {
		t.Fatalf("after drain Entries = %d, want %d", n, batches)
	}
	if st := s.Stats(); st.InsertBatches != batches || st.InFlightEntries != 0 {
		t.Fatalf("stats after drain = %+v", st)
	}
}

func TestServeAfterCloseRefused(t *testing.T) {
	m, err := hhgb.NewSharded(1<<10, hhgb.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := New(Config{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(ln); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve after Close = %v, want ErrServerClosed", err)
	}
}

func TestStatsHandlerServesJSON(t *testing.T) {
	s, _, addr := startServer(t, 1<<10, Config{})
	c := dialRaw(t, addr)
	c.handshake()
	body, err := proto.AppendInsert(nil, 1, []uint64{1}, []uint64{2}, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	c.send(proto.KindInsert, body)
	c.expectAck(1)

	rec := httptest.NewRecorder()
	s.StatsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, rec.Body.String())
	}
	if st.InsertBatches != 1 || st.InsertEntries != 1 || st.ActiveConns != 1 || len(st.Conns) != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Conns[0].Remote == "" || st.BytesIn == 0 || st.BytesOut == 0 {
		t.Fatalf("per-conn stats = %+v", st.Conns[0])
	}
}

// TestSessionDedupAndResume covers the exactly-once path end to end on a
// flat (non-durable) server: a retransmitted frame is acked without being
// re-applied, a second connection resuming the session learns the
// frontier in its Welcome, and its cross-connection retransmits are
// dropped too.
func TestSessionDedupAndResume(t *testing.T) {
	srv, m, addr := startServer(t, 1<<20, Config{})
	c := dialRaw(t, addr)
	if w := c.handshakeSession("sess-A", 0); w.LastSeq != 0 {
		t.Fatalf("fresh session LastSeq = %d, want 0", w.LastSeq)
	}
	body, err := proto.AppendInsert(nil, 1, []uint64{7}, []uint64{8}, []uint64{3})
	if err != nil {
		t.Fatal(err)
	}
	c.send(proto.KindInsert, body)
	c.expectAck(1)
	// The exact same frame again: acked, not re-applied.
	c.send(proto.KindInsert, body)
	c.expectAck(1)
	c.send(proto.KindFlush, proto.AppendSeq(nil, 2))
	c.expectAck(2)
	if v, ok, err := m.Lookup(7, 8); err != nil || !ok || v != 3 {
		t.Fatalf("Lookup = %d, %v, %v; want 3 (the duplicate must not double it)", v, ok, err)
	}

	// A reconnecting client resumes the session on a new connection.
	c2 := dialRaw(t, addr)
	if w := c2.handshakeSession("sess-A", 1); w.LastSeq != 1 {
		t.Fatalf("resumed session LastSeq = %d, want 1", w.LastSeq)
	}
	c2.send(proto.KindInsert, body) // retransmit of seq 1 across connections
	c2.expectAck(1)
	body2, err := proto.AppendInsert(nil, 2, []uint64{7}, []uint64{8}, []uint64{4})
	if err != nil {
		t.Fatal(err)
	}
	c2.send(proto.KindInsert, body2)
	c2.expectAck(2)
	c2.send(proto.KindFlush, proto.AppendSeq(nil, 3))
	c2.expectAck(3)
	if v, ok, err := m.Lookup(7, 8); err != nil || !ok || v != 7 {
		t.Fatalf("Lookup = %d, %v, %v; want 7", v, ok, err)
	}

	st := srv.Stats()
	if st.DuplicatesDropped != 2 || st.SessionsResumed != 1 {
		t.Fatalf("stats: duplicates_dropped=%d sessions_resumed=%d, want 2/1",
			st.DuplicatesDropped, st.SessionsResumed)
	}
	// Only the two fresh frames count as inserts.
	if st.InsertBatches != 2 || st.InsertEntries != 2 {
		t.Fatalf("stats: batches=%d entries=%d, want 2/2", st.InsertBatches, st.InsertEntries)
	}
}

// TestCrossProcessResumeMintingFloor pins the two Welcome frontiers
// against the scenario that used to lose data: on a durable server a
// client flushes through seq 1, sends seq 3 (acked, never flushed), and
// dies with its retransmit ring. The resuming process must learn both
// LastSeq=1 — the under-reported trim/retransmit frontier — and
// HighSeq=3 — the minting floor: a fresh frame minted at seq 3 (what
// seeding from LastSeq produced) is dup-acked without being applied.
func TestCrossProcessResumeMintingFloor(t *testing.T) {
	// Huge sync-every: the WAL fsyncs only at barriers, so the durable
	// frontier provably trails the accepted one between Flushes.
	m, err := hhgb.NewSharded(1<<20, hhgb.WithShards(2),
		hhgb.WithDurability(t.TempDir()), hhgb.WithSyncEvery(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	s, err := New(Config{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	addr := ln.Addr().String()

	c := dialRaw(t, addr)
	if w := c.handshakeSession("sess-M", 0); w.LastSeq != 0 || w.HighSeq != 0 {
		t.Fatalf("fresh session frontiers = %d/%d, want 0/0", w.LastSeq, w.HighSeq)
	}
	b1, err := proto.AppendInsert(nil, 1, []uint64{7}, []uint64{8}, []uint64{3})
	if err != nil {
		t.Fatal(err)
	}
	c.send(proto.KindInsert, b1)
	c.expectAck(1)
	c.send(proto.KindFlush, proto.AppendSeq(nil, 2))
	c.expectAck(2) // durable frontier: 1
	b3, err := proto.AppendInsert(nil, 3, []uint64{9}, []uint64{10}, []uint64{5})
	if err != nil {
		t.Fatal(err)
	}
	c.send(proto.KindInsert, b3)
	c.expectAck(3) // accepted: 3, durable still 1

	// The "fresh process" resumes: it must see both frontiers.
	c2 := dialRaw(t, addr)
	w := c2.handshakeSession("sess-M", 0)
	if w.LastSeq != 1 {
		t.Fatalf("resumed LastSeq = %d, want 1 (durable frontier under-reports)", w.LastSeq)
	}
	if w.HighSeq != 3 {
		t.Fatalf("resumed HighSeq = %d, want 3 (accepted frontier is the minting floor)", w.HighSeq)
	}
	// Reusing a seq at or below HighSeq is exactly the loss mode: acked,
	// never applied. The server's dedup cannot tell new data from a
	// retransmission — that is why the client must mint above HighSeq.
	bReused, err := proto.AppendInsert(nil, 3, []uint64{100}, []uint64{100}, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	c2.send(proto.KindInsert, bReused)
	c2.expectAck(3)
	// New data minted above HighSeq lands.
	b4, err := proto.AppendInsert(nil, 4, []uint64{11}, []uint64{12}, []uint64{9})
	if err != nil {
		t.Fatal(err)
	}
	c2.send(proto.KindInsert, b4)
	c2.expectAck(4)
	c2.send(proto.KindFlush, proto.AppendSeq(nil, 5))
	c2.expectAck(5)
	if v, ok, err := m.Lookup(11, 12); err != nil || !ok || v != 9 {
		t.Fatalf("Lookup(11,12) = %d, %v, %v; want 9 (minted above HighSeq must apply)", v, ok, err)
	}
	if v, ok, err := m.Lookup(9, 10); err != nil || !ok || v != 5 {
		t.Fatalf("Lookup(9,10) = %d, %v, %v; want 5", v, ok, err)
	}
	if _, ok, err := m.Lookup(100, 100); err != nil || ok {
		t.Fatalf("Lookup(100,100) found=%v, %v; want absent (reused seq is dup-dropped)", ok, err)
	}
}
