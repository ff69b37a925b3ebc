package server

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/json"
	"math"
	"math/big"
	"net"
	"reflect"
	"sort"
	"testing"
	"time"

	"hhgb"
	"hhgb/internal/proto"
)

var winBase = time.Unix(1_700_000_000, 0)

// startWindowedServer runs a server over a fresh windowed matrix.
func startWindowedServer(t *testing.T, cfg Config, opts ...hhgb.Option) (*Server, *hhgb.Windowed, string) {
	t.Helper()
	wm, err := hhgb.NewWindowed(1<<20, time.Second,
		append([]hhgb.Option{hhgb.WithShards(2), hhgb.WithLateness(time.Hour)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wm.Close() })
	cfg.Windowed = wm
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
	return s, wm, ln.Addr().String()
}

func (c *rawConn) expectError(seq, code uint64) {
	c.t.Helper()
	f := c.next()
	if f.Kind != proto.KindError {
		c.t.Fatalf("want error frame, got kind %#x", f.Kind)
	}
	gotSeq, gotCode, msg, err := proto.ParseError(f.Body)
	if err != nil || gotSeq != seq || gotCode != code {
		c.t.Fatalf("error = seq %d code %d (%q), %v; want seq %d code %d", gotSeq, gotCode, msg, err, seq, code)
	}
}

func TestWindowedServerEndToEnd(t *testing.T) {
	srv, _, addr := startWindowedServer(t, Config{})
	c := dialRaw(t, addr)
	w := c.handshake()
	if w.Window != uint64(time.Second) {
		t.Fatalf("welcome window = %d, want 1s", w.Window)
	}
	if !w.Durable && w.Dim != 1<<20 {
		t.Fatalf("welcome = %+v", w)
	}

	// Subscribe to level-0 seals before ingesting.
	c.send(proto.KindSubscribe, proto.AppendSubscribe(nil, 1, 0))
	c.expectAck(1)

	// A plain Insert is refused on a windowed server.
	plain, err := proto.AppendInsert(nil, 2, []uint64{1}, []uint64{2}, []uint64{3})
	if err != nil {
		t.Fatal(err)
	}
	c.send(proto.KindInsert, plain)
	c.expectError(2, proto.ErrCodeRejected)

	// Three windows of traffic: window w holds w+1 packets from source 7.
	seq := uint64(3)
	for win := 0; win < 3; win++ {
		ts := uint64(winBase.Add(time.Duration(win) * time.Second).UnixNano())
		for i := 0; i <= win; i++ {
			body, err := proto.AppendInsertAt(nil, seq, ts, []uint64{7}, []uint64{uint64(10 + win)}, []uint64{1})
			if err != nil {
				t.Fatal(err)
			}
			c.send(proto.KindInsertAt, body)
			c.expectAck(seq)
			seq++
		}
	}
	c.send(proto.KindFlush, proto.AppendSeq(nil, seq))
	c.expectAck(seq)
	seq++

	// Range over windows 1..2: 2+3 = 5 packets.
	t0 := uint64(winBase.Add(time.Second).UnixNano())
	t1 := uint64(winBase.Add(3 * time.Second).UnixNano())
	c.query(proto.KindRangeSummary, proto.Query{Seq: seq, T0: t0, T1: t1})
	f := c.next()
	if f.Kind != proto.KindSummaryResp {
		t.Fatalf("range summary reply kind %#x", f.Kind)
	}
	gotSeq, sum, err := proto.ParseSummaryResp(f.Body)
	if err != nil || gotSeq != seq || sum.TotalPackets != 5 || sum.Entries != 2 {
		t.Fatalf("range summary = seq %d %+v, %v", gotSeq, sum, err)
	}
	seq++

	c.query(proto.KindRangeTopK, proto.Query{Seq: seq, Axis: proto.AxisSources, K: 1, T0: t0, T1: t1})
	f = c.next()
	gotSeq, top, err := proto.ParseTopKResp(f.Body)
	if err != nil || gotSeq != seq || len(top) != 1 || top[0].ID != 7 || top[0].Value != 5 {
		t.Fatalf("range topk = %v, %v", top, err)
	}
	seq++

	c.query(proto.KindRangeLookup, proto.Query{Seq: seq, Src: 7, Dst: 11, T0: t0, T1: t1})
	f = c.next()
	gotSeq, found, v, err := proto.ParseLookupResp(f.Body)
	if err != nil || gotSeq != seq || !found || v != 2 {
		t.Fatalf("range lookup = %d/%v/%v", v, found, err)
	}
	seq++

	// The un-ranged Lookup answers all-time: 1 packet in window 0.
	c.query(proto.KindLookup, proto.Query{Seq: seq, Src: 7, Dst: 10})
	f = c.next()
	_, found, v, err = proto.ParseLookupResp(f.Body)
	if err != nil || !found || v != 1 {
		t.Fatalf("all-time lookup = %d/%v/%v", v, found, err)
	}
	seq++

	// Sealing the first two windows pushes exactly two summaries, in
	// order, tagged with the subscribe seq.
	srv.cfg.Windowed.Seal(winBase.Add(2 * time.Second))
	for win := 0; win < 2; win++ {
		f = c.next()
		if f.Kind != proto.KindWindowSummary {
			t.Fatalf("expected WindowSummary, got kind %#x", f.Kind)
		}
		ws, err := proto.ParseWindowSummary(f.Body)
		if err != nil {
			t.Fatal(err)
		}
		if ws.Sub != 1 || ws.Level != 0 {
			t.Fatalf("summary tag = sub %d level %d", ws.Sub, ws.Level)
		}
		if want := uint64(winBase.Add(time.Duration(win) * time.Second).UnixNano()); ws.Start != want {
			t.Fatalf("summary %d start = %d, want %d", win, ws.Start, want)
		}
		if ws.Packets != uint64(win+1) {
			t.Fatalf("summary %d packets = %d, want %d", win, ws.Packets, win+1)
		}
	}

	// A late insert behind the frontier is refused with a typed error.
	late, err := proto.AppendInsertAt(nil, seq, uint64(winBase.UnixNano()), []uint64{1}, []uint64{1}, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	c.send(proto.KindInsertAt, late)
	c.expectError(seq, proto.ErrCodeRejected)
	seq++

	// Goodbye still drains cleanly with a subscription open.
	c.send(proto.KindGoodbye, proto.AppendSeq(nil, seq))
	c.expectAck(seq)

	st := srv.Stats()
	if st.Subscriptions != 1 || st.WindowSummaries != 2 {
		t.Fatalf("stats: subscriptions=%d summaries=%d", st.Subscriptions, st.WindowSummaries)
	}
}

func TestWindowedOpsRejectedOnFlatServer(t *testing.T) {
	_, _, addr := startServer(t, 1<<20, Config{})
	c := dialRaw(t, addr)
	if w := c.handshake(); w.Window != 0 {
		t.Fatalf("flat server advertises window %d", w.Window)
	}
	body, err := proto.AppendInsertAt(nil, 1, uint64(winBase.UnixNano()), []uint64{1}, []uint64{2}, []uint64{3})
	if err != nil {
		t.Fatal(err)
	}
	c.send(proto.KindInsertAt, body)
	c.expectError(1, proto.ErrCodeRejected)
	c.send(proto.KindSubscribe, proto.AppendSubscribe(nil, 2, proto.SubscribeAllLevels))
	c.expectError(2, proto.ErrCodeRejected)

	// Every query op, plain and under EXPLAIN, against both stores: a range
	// op on the flat server and a backwards range on the windowed one are
	// the client's fault — ErrCodeRejected, never ErrCodeInternal — and
	// leave the connection serving the next query.
	_, _, waddr := startWindowedServer(t, Config{})
	wc := dialRaw(t, waddr)
	wc.handshake()
	t0, t1 := uint64(winBase.UnixNano()), uint64(winBase.Add(time.Second).UnixNano())
	ops := []struct {
		name string
		q    proto.Query
		resp byte
	}{
		{"lookup", proto.Query{Op: proto.KindLookup, Src: 1, Dst: 2}, proto.KindLookupResp},
		{"topk", proto.Query{Op: proto.KindTopK, Axis: proto.AxisSources, K: 3}, proto.KindTopKResp},
		{"summary", proto.Query{Op: proto.KindSummary}, proto.KindSummaryResp},
		{"range_lookup", proto.Query{Op: proto.KindRangeLookup, Src: 1, Dst: 2}, proto.KindLookupResp},
		{"range_topk", proto.Query{Op: proto.KindRangeTopK, Axis: proto.AxisDestinations, K: 3}, proto.KindTopKResp},
		{"range_summary", proto.Query{Op: proto.KindRangeSummary}, proto.KindSummaryResp},
	}
	seq := uint64(2)
	for _, srv := range []struct {
		name   string
		c      *rawConn
		t0, t1 uint64 // the bounds range ops carry
	}{
		{"flat", c, t0, t1},
		{"windowed-backwards", wc, t1, t0},
		{"windowed-overflow", wc, t0, 1 << 63},
	} {
		for _, op := range ops {
			for _, kind := range []byte{op.q.Op, proto.KindExplain} {
				seq++
				q := op.q
				q.Seq = seq
				if q.Ranged() {
					q.T0, q.T1 = srv.t0, srv.t1
				}
				srv.c.query(kind, q)
				f := srv.c.next()
				if q.Ranged() {
					gotSeq, code, msg, err := proto.ParseError(f.Body)
					if f.Kind != proto.KindError || err != nil || gotSeq != seq || code != proto.ErrCodeRejected {
						t.Fatalf("%s/%s kind %#x: reply kind %#x seq %d code %d (%q), %v; want ErrCodeRejected for seq %d",
							srv.name, op.name, kind, f.Kind, gotSeq, code, msg, err, seq)
					}
					continue
				}
				want := op.resp
				if kind == proto.KindExplain {
					want = proto.KindExplainResp
				}
				if f.Kind != want {
					t.Fatalf("%s/%s kind %#x: reply kind %#x, want %#x", srv.name, op.name, kind, f.Kind, want)
				}
			}
		}
	}
}

// TestHugeTopKBounded sends top-k requests whose k comes nowhere near the
// data: a k that fits an int is answered with what exists (the selection
// heap is bounded by the vector, not by the wire), a k that does not is a
// typed rejection — and neither takes the process or the connection down.
func TestHugeTopKBounded(t *testing.T) {
	_, m, faddr := startServer(t, 1<<20, Config{})
	if err := m.AppendWeighted([]uint64{1, 2}, []uint64{3, 3}, []uint64{5, 7}); err != nil {
		t.Fatal(err)
	}
	_, wm, waddr := startWindowedServer(t, Config{})
	if err := wm.AppendWeighted(winBase, []uint64{1, 2}, []uint64{3, 3}, []uint64{5, 7}); err != nil {
		t.Fatal(err)
	}
	t0, t1 := uint64(winBase.UnixNano()), uint64(winBase.Add(time.Second).UnixNano())
	for _, srv := range []struct {
		name string
		addr string
		ops  []proto.Query
	}{
		{"flat", faddr, []proto.Query{{Op: proto.KindTopK}}},
		{"windowed", waddr, []proto.Query{{Op: proto.KindTopK}, {Op: proto.KindRangeTopK, T0: t0, T1: t1}}},
	} {
		c := dialRaw(t, srv.addr)
		c.handshake()
		seq := uint64(0)
		for _, op := range srv.ops {
			for _, kind := range []byte{op.Op, proto.KindExplain} {
				q := op
				seq++
				q.Seq, q.K = seq, 1<<62
				c.query(kind, q)
				f := c.next()
				if kind == proto.KindExplain {
					if f.Kind != proto.KindExplainResp {
						t.Fatalf("%s op %#x explain k=1<<62: reply kind %#x", srv.name, op.Op, f.Kind)
					}
				} else if _, top, err := proto.ParseTopKResp(f.Body); f.Kind != proto.KindTopKResp || err != nil ||
					len(top) != 2 || top[0] != (proto.Ranked{ID: 2, Value: 7}) || top[1] != (proto.Ranked{ID: 1, Value: 5}) {
					t.Fatalf("%s op %#x k=1<<62: reply kind %#x top %v, %v; want both sources ranked", srv.name, op.Op, f.Kind, top, err)
				}
				seq++
				q.Seq, q.K = seq, math.MaxUint64
				c.query(kind, q)
				c.expectError(seq, proto.ErrCodeRejected)
			}
		}
		seq++
		c.query(proto.KindSummary, proto.Query{Seq: seq})
		if f := c.next(); f.Kind != proto.KindSummaryResp {
			t.Fatalf("%s: connection unusable after huge-k requests: reply kind %#x", srv.name, f.Kind)
		}
	}
}

// TestStatsSchemaPinned asserts the exact JSON field set of the versioned
// /stats document: adding a field requires updating this list (and
// renaming or removing one requires bumping StatsVersion), so client
// dashboards never silently break.
func TestStatsSchemaPinned(t *testing.T) {
	if StatsVersion != 1 {
		t.Fatalf("StatsVersion = %d: update the pinned field sets for the new schema", StatsVersion)
	}
	wantTop := []string{
		"active_conns", "bytes_in", "bytes_out", "checkpoints", "conns",
		"duplicates_dropped", "flushes", "in_flight_entries",
		"insert_batches", "insert_entries", "overloads", "queries",
		"rejected", "sessions_resumed", "subscriptions", "total_conns",
		"version", "window_summaries_pushed",
	}
	wantConn := []string{
		"bytes_in", "bytes_out", "id", "insert_batches", "insert_entries",
		"overloads", "pending", "remote",
	}
	st := Stats{Version: StatsVersion, Conns: []ConnStats{{ID: 1, Remote: "r"}}}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	if got := sortedKeys(top); !reflect.DeepEqual(got, wantTop) {
		t.Fatalf("stats fields drifted:\n got %v\nwant %v", got, wantTop)
	}
	var conns []map[string]json.RawMessage
	if err := json.Unmarshal(top["conns"], &conns); err != nil || len(conns) != 1 {
		t.Fatalf("conns: %v", err)
	}
	if got := sortedKeys(conns[0]); !reflect.DeepEqual(got, wantConn) {
		t.Fatalf("conn stats fields drifted:\n got %v\nwant %v", got, wantConn)
	}
	if string(top["version"]) != "1" {
		t.Fatalf("version = %s, want 1", top["version"])
	}
}

func sortedKeys(m map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// selfSigned mints a loopback-only certificate for the TLS tests.
func selfSigned(t *testing.T) (tls.Certificate, *x509.CertPool) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "hhgb-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(leaf)
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key, Leaf: leaf}, pool
}

// TestTLSListener covers the listener-side TLS wrap below the client
// conveniences: a verified TLS session speaks the protocol end to end,
// and a plaintext dial fails rather than reaching the handshake.
func TestTLSListener(t *testing.T) {
	cert, pool := selfSigned(t)
	_, _, addr := startServer(t, 1<<20, Config{
		TLS: &tls.Config{Certificates: []tls.Certificate{cert}},
	})

	nc, err := tls.Dial("tcp", addr, &tls.Config{RootCAs: pool, ServerName: "127.0.0.1"})
	if err != nil {
		t.Fatalf("tls dial: %v", err)
	}
	defer nc.Close()
	c := &rawConn{t: t, nc: nc, r: proto.NewReader(nc), w: proto.NewWriter(nc)}
	if w := c.handshake(); w.Dim != 1<<20 {
		t.Fatalf("welcome over TLS = %+v", w)
	}
	body, err := proto.AppendInsert(nil, 1, []uint64{4}, []uint64{5}, []uint64{6})
	if err != nil {
		t.Fatal(err)
	}
	c.send(proto.KindInsert, body)
	c.expectAck(1)

	// Plaintext against the TLS listener: the server's TLS layer rejects
	// it; the client sees a dead or torn connection, never a Welcome.
	plain, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	pw := proto.NewWriter(plain)
	pw.WriteFrame(proto.KindHello, proto.AppendHello(nil, "plaintext", 0))
	pw.Flush()
	plain.SetReadDeadline(time.Now().Add(2 * time.Second))
	if f, err := proto.NewReader(plain).Next(); err == nil && f.Kind == proto.KindWelcome {
		t.Fatal("plaintext handshake succeeded against a TLS listener")
	}
}
