package server

import (
	"errors"
	"io"
	"net"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"hhgb"
	"hhgb/internal/metrics"
	"hhgb/internal/proto"
)

// TestMetricsSchemaPinned asserts the exact exported metric family set —
// name and kind — in the style of TestStatsSchemaPinned: adding a metric
// requires updating this list, so dashboards and the CI smoke never
// silently lose a series they scrape.
func TestMetricsSchemaPinned(t *testing.T) {
	reg := hhgb.NewMetrics()
	_, _, addr := startWindowedServer(t, Config{Metrics: reg, TraceSample: 1}, hhgb.WithMetrics(reg))

	// One frame of traffic so histograms and funcs all have samples.
	c := dialRaw(t, addr)
	c.handshake()
	body, err := proto.AppendInsertAt(nil, 1, uint64(winBase.UnixNano()), []uint64{1}, []uint64{2}, []uint64{3})
	if err != nil {
		t.Fatal(err)
	}
	c.send(proto.KindInsertAt, body)
	c.expectAck(1)
	// And one traced range query so the hhgb_query_* families carry samples.
	t0 := uint64(winBase.UnixNano())
	c.query(proto.KindRangeLookup, proto.Query{Seq: 2, Src: 1, Dst: 2, T0: t0, T1: t0 + uint64(time.Second)})
	if f := c.next(); f.Kind != proto.KindLookupResp {
		t.Fatalf("range lookup reply kind %#x", f.Kind)
	}

	want := map[string]string{
		"hhgb_server_connections_total":         "counter",
		"hhgb_server_active_conns":              "gauge",
		"hhgb_server_insert_batches_total":      "counter",
		"hhgb_server_insert_entries_total":      "counter",
		"hhgb_server_overloads_total":           "counter",
		"hhgb_server_duplicates_dropped_total":  "counter",
		"hhgb_server_sessions_resumed_total":    "counter",
		"hhgb_server_rejected_total":            "counter",
		"hhgb_server_flushes_total":             "counter",
		"hhgb_server_checkpoints_total":         "counter",
		"hhgb_server_queries_total":             "counter",
		"hhgb_server_subscriptions_total":       "counter",
		"hhgb_server_window_summaries_total":    "counter",
		"hhgb_server_subscribers_evicted_total": "counter",
		"hhgb_server_in_flight_entries":         "gauge",
		"hhgb_server_in_flight_budget":          "gauge",
		"hhgb_server_frames_in_total":           "counter",
		"hhgb_server_frames_out_total":          "counter",
		"hhgb_server_bytes_in_total":            "counter",
		"hhgb_server_bytes_out_total":           "counter",
		"hhgb_server_op_seconds":                "histogram",
		"hhgb_server_ingest_stage_seconds":      "histogram",
		"hhgb_query_stage_seconds":              "histogram",
		"hhgb_query_shards_touched":             "histogram",
		"hhgb_query_windows_touched":            "histogram",
		"hhgb_shard_cache_hits_total":           "counter",
		"hhgb_shard_cache_misses_total":         "counter",
		"hhgb_shard_cache_invalidations_total":  "counter",
		"hhgb_shard_batches_applied_total":      "counter",
		"hhgb_shard_entries_applied_total":      "counter",
		"hhgb_shard_wal_fsync_seconds":          "histogram",
		"hhgb_shard_checkpoint_seconds":         "histogram",
		"hhgb_shard_queue_depth":                "gauge",
		"hhgb_window_seal_lag_seconds":          "histogram",
		"hhgb_window_rollup_seconds":            "histogram",
		"hhgb_window_summaries_pushed_total":    "counter",
		"hhgb_window_subscribers_evicted_total": "counter",
		"hhgb_window_active":                    "gauge",
		"hhgb_window_sealed":                    "gauge",
		"hhgb_window_seals_total":               "counter",
		"hhgb_window_rollups_total":             "counter",
		"hhgb_window_expired_total":             "counter",
		"hhgb_window_late_drops_total":          "counter",
		"hhgb_window_subscriber_queue_depth":    "gauge",
	}
	got := map[string]string{}
	for _, f := range reg.Families() {
		got[f.Name] = f.Kind
	}
	if !reflect.DeepEqual(got, want) {
		for n, k := range got {
			if want[n] != k {
				t.Errorf("unexpected family %s (%s) — new metrics must be added to the pinned list", n, k)
			}
		}
		for n, k := range want {
			if got[n] != k {
				t.Errorf("missing family %s (%s)", n, k)
			}
		}
	}

	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidateExposition(b.String()); err != nil {
		t.Fatalf("/metrics output does not parse: %v", err)
	}
}

// TestMetricsReconcileWithStats drives traffic and asserts the /metrics
// counters equal the /stats v1 snapshot — the acceptance contract: the
// two endpoints read the same atomics, so they can never drift.
func TestMetricsReconcileWithStats(t *testing.T) {
	reg := hhgb.NewMetrics()
	srv, _, addr := startWindowedServer(t, Config{Metrics: reg}, hhgb.WithMetrics(reg))
	c := dialRaw(t, addr)
	c.handshakeSession("recon", 0)
	seq := uint64(1)
	for win := 0; win < 3; win++ {
		ts := uint64(winBase.Add(time.Duration(win) * time.Second).UnixNano())
		body, err := proto.AppendInsertAt(nil, seq, ts, []uint64{1, 2}, []uint64{3, 4}, []uint64{1, 1})
		if err != nil {
			t.Fatal(err)
		}
		c.send(proto.KindInsertAt, body)
		c.expectAck(seq)
		seq++
	}
	// A duplicate retransmission, a flush, and a query.
	dup, err := proto.AppendInsertAt(nil, 1, uint64(winBase.UnixNano()), []uint64{1}, []uint64{3}, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	c.send(proto.KindInsertAt, dup)
	c.expectAck(1)
	c.send(proto.KindFlush, proto.AppendSeq(nil, seq))
	c.expectAck(seq)
	seq++
	c.query(proto.KindLookup, proto.Query{Seq: seq, Src: 1, Dst: 3})
	if f := c.next(); f.Kind != proto.KindLookupResp {
		t.Fatalf("lookup reply kind %#x", f.Kind)
	}

	st := srv.Stats()
	if st.InsertEntries != 6 || st.DuplicatesDropped != 1 {
		t.Fatalf("stats: %+v", st)
	}
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	sample := func(name string) string {
		for _, line := range strings.Split(out, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				return v
			}
		}
		t.Fatalf("no sample for %s in:\n%s", name, out)
		return ""
	}
	for name, want := range map[string]int64{
		"hhgb_server_insert_entries_total":     st.InsertEntries,
		"hhgb_server_insert_batches_total":     st.InsertBatches,
		"hhgb_server_duplicates_dropped_total": st.DuplicatesDropped,
		"hhgb_server_flushes_total":            st.Flushes,
		"hhgb_server_queries_total":            st.Queries,
		"hhgb_server_connections_total":        st.TotalConns,
		"hhgb_server_overloads_total":          st.Overloads,
		"hhgb_server_rejected_total":           st.Rejected,
	} {
		if got := sample(name); got != strconv.FormatInt(want, 10) {
			t.Errorf("%s = %s, /stats says %d", name, got, want)
		}
	}
}

// pipeListener feeds net.Pipe server halves to Serve. Pipes carry no
// kernel buffer, so a peer that stops reading blocks the server's very
// next write — which is what makes the eviction test deterministic.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	select {
	case <-l.done:
	default:
		close(l.done)
	}
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// dial hands the server half to Accept and returns the client half.
func (l *pipeListener) dial(t *testing.T) *rawConn {
	t.Helper()
	client, server := net.Pipe()
	select {
	case l.conns <- server:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not accept the pipe")
	}
	t.Cleanup(func() { client.Close() })
	return &rawConn{t: t, nc: client, r: proto.NewReader(client), w: proto.NewWriter(client)}
}

// TestSubscriberEvictionE2E: a subscriber that stops reading is evicted —
// typed ErrCodeEvicted frame, connection closed, counted in metrics —
// while a healthy subscriber on the same store observes every seal.
// Deterministic: net.Pipe writes block instantly, WithSubscriberQueue(1)
// with zero patience evicts on the first over-bound publish, and the
// stalled client resumes reading only to collect its eviction notice.
func TestSubscriberEvictionE2E(t *testing.T) {
	reg := hhgb.NewMetrics()
	wm, err := hhgb.NewWindowed(1<<20, time.Second,
		hhgb.WithShards(2), hhgb.WithLateness(time.Hour),
		hhgb.WithMetrics(reg), hhgb.WithSubscriberQueue(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wm.Close() })
	srv, err := New(Config{Windowed: wm, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener()
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	stalled := ln.dial(t)
	stalled.handshake()
	stalled.send(proto.KindSubscribe, proto.AppendSubscribe(nil, 7, 0))
	stalled.expectAck(7)

	healthy := ln.dial(t)
	healthy.handshake()
	healthy.send(proto.KindSubscribe, proto.AppendSubscribe(nil, 9, 0))
	healthy.expectAck(9)

	// Seal windows from the ingest side until the stalled subscriber's
	// queue trips the bound. The stalled client reads NOTHING during this
	// phase: its pusher blocks on the pipe holding one summary, the next
	// queues (bound reached), and the one after that evicts. The healthy
	// client consumes each summary BEFORE the next seal — its queue is
	// provably empty at every publish, so with the same hair-trigger
	// bound it can never be evicted: eviction is per-subscriber backlog,
	// not per-store.
	const seals = 3
	for win := 0; win <= seals; win++ {
		at := winBase.Add(time.Duration(win) * time.Second)
		if err := wm.Append(at, []uint64{4}, []uint64{5}); err != nil {
			t.Fatal(err)
		}
		if err := wm.Seal(at); err != nil {
			t.Fatal(err)
		}
		if win == 0 {
			continue // nothing sealed yet: first window still open
		}
		f := healthy.next()
		if f.Kind == proto.KindError {
			seq, code, msg, _ := proto.ParseError(f.Body)
			t.Fatalf("healthy subscriber: want WindowSummary %d, got error seq %d code %d: %s", win-1, seq, code, msg)
		}
		if f.Kind != proto.KindWindowSummary {
			t.Fatalf("healthy subscriber: want WindowSummary %d, got kind %#x", win-1, f.Kind)
		}
		ws, err := proto.ParseWindowSummary(f.Body)
		if err != nil || ws.Sub != 9 {
			t.Fatalf("healthy summary %d: %+v, %v", win-1, ws, err)
		}
		if want := uint64(winBase.Add(time.Duration(win-1) * time.Second).UnixNano()); ws.Start != want {
			t.Fatalf("healthy summary %d start = %d, want %d (order broken)", win-1, ws.Start, want)
		}
	}

	// The stalled client resumes reading: at most one in-flight summary,
	// then the typed eviction notice, then the server closes the conn.
	sawEvicted := false
	for i := 0; i < 4 && !sawEvicted; i++ {
		f, err := stalled.r.Next()
		if err != nil {
			t.Fatalf("stalled conn died before the eviction notice: %v", err)
		}
		switch f.Kind {
		case proto.KindWindowSummary:
			// the one the pusher was blocked writing
		case proto.KindError:
			seq, code, _, perr := proto.ParseError(f.Body)
			if perr != nil || code != proto.ErrCodeEvicted || seq != 7 {
				t.Fatalf("eviction notice = seq %d code %d, %v; want seq 7 code %d", seq, code, perr, proto.ErrCodeEvicted)
			}
			sawEvicted = true
		default:
			t.Fatalf("unexpected frame kind %#x on stalled conn", f.Kind)
		}
	}
	if !sawEvicted {
		t.Fatal("no ErrCodeEvicted frame")
	}
	if _, err := stalled.r.Next(); err == nil {
		t.Fatal("stalled connection still open after eviction")
	} else if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
		t.Logf("stalled conn closed with %v", err)
	}

	// The healthy subscriber keeps working after the eviction.
	healthy.send(proto.KindFlush, proto.AppendSeq(nil, 100))
	healthy.expectAck(100)

	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "hhgb_server_subscribers_evicted_total 1\n") {
		t.Errorf("server eviction not counted:\n%s", out)
	}
	if !strings.Contains(out, "hhgb_window_subscribers_evicted_total 1\n") {
		t.Errorf("window eviction not counted:\n%s", out)
	}
}
