package server

import (
	"strings"
	"testing"
	"time"

	"hhgb"
	"hhgb/internal/flight"
	"hhgb/internal/pool"
	"hhgb/internal/proto"
)

// TestQueryStageSpansReconcile is the read-path twin of
// TestIngestStageSpansReconcile: every query op carries a span whose
// seven synchronous stages partition [decode start, ack] exactly, so the
// per-stage histogram sums must equal the total — both directions, not
// just an upper bound like ingest (queries have no async tail). With
// SlowQuery 0 every spanned query is also force-recorded into the flight
// ring as one causally ordered chain, which this walks per query.
func TestQueryStageSpansReconcile(t *testing.T) {
	reg := hhgb.NewMetrics()
	rec := hhgb.NewFlightRecorder(256)
	// SlowFrame -1 keeps ingest spans out of the ring so it holds only
	// query chains.
	_, _, addr := startWindowedServer(t,
		Config{Metrics: reg, Flight: rec, TraceSample: 1, SlowFrame: -1, SlowQuery: 0},
		hhgb.WithMetrics(reg), hhgb.WithFlightRecorder(rec))

	c := dialRaw(t, addr)
	c.handshakeSession("qspan", 0)
	for seq := uint64(1); seq <= 3; seq++ {
		ts := uint64(winBase.Add(time.Duration(seq-1) * time.Second).UnixNano())
		body, err := proto.AppendInsertAt(nil, seq, ts, []uint64{1}, []uint64{7}, []uint64{seq})
		if err != nil {
			t.Fatal(err)
		}
		c.send(proto.KindInsertAt, body)
		c.expectAck(seq)
	}

	// One of each read op, plain and ranged: seq 4..9.
	t0 := uint64(winBase.UnixNano())
	t1 := uint64(winBase.Add(4 * time.Second).UnixNano())
	queries := []struct {
		kind byte
		q    proto.Query
		resp byte
	}{
		{proto.KindLookup, proto.Query{Seq: 4, Src: 1, Dst: 7}, proto.KindLookupResp},
		{proto.KindTopK, proto.Query{Seq: 5, Axis: proto.AxisSources, K: 5}, proto.KindTopKResp},
		{proto.KindSummary, proto.Query{Seq: 6}, proto.KindSummaryResp},
		{proto.KindRangeLookup, proto.Query{Seq: 7, Src: 1, Dst: 7, T0: t0, T1: t1}, proto.KindLookupResp},
		{proto.KindRangeTopK, proto.Query{Seq: 8, Axis: proto.AxisDestinations, K: 5, T0: t0, T1: t1}, proto.KindTopKResp},
		{proto.KindRangeSummary, proto.Query{Seq: 9, T0: t0, T1: t1}, proto.KindSummaryResp},
	}
	for _, q := range queries {
		c.query(q.kind, q.q)
		if f := c.next(); f.Kind != q.resp {
			t.Fatalf("query kind %#x reply kind %#x, want %#x", q.kind, f.Kind, q.resp)
		}
	}
	nq := uint64(len(queries))

	// A span finalizes just after its response is written; wait for all.
	hists := flight.QueryPlane.Histograms(reg)
	total := hists[flight.QStageTotal]
	deadline := time.Now().Add(5 * time.Second)
	for total.Count() < nq {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d query spans finalized", total.Count(), nq)
		}
		time.Sleep(5 * time.Millisecond)
	}

	sum := func(st flight.Stage) float64 {
		_, _, _, s := hists[st].Snapshot()
		return s
	}
	syncStages := []flight.Stage{
		flight.QStageDecode, flight.QStageQueue, flight.QStagePlan, flight.QStageFanout,
		flight.QStageMerge, flight.QStageEncode, flight.QStageAck,
	}
	var syncSum float64
	for _, st := range syncStages {
		if n := hists[st].Count(); n != nq {
			t.Errorf("stage %d has %d observations, want %d", st, n, nq)
		}
		syncSum += sum(st)
	}
	totalSum := sum(flight.QStageTotal)
	if totalSum <= 0 {
		t.Fatalf("total stage sum = %g, want > 0", totalSum)
	}
	// Sync stages share boundary timestamps and there is no async tail:
	// the partition is exact, so the sums must agree both ways (modulo
	// float rounding of the per-stage nanosecond conversions).
	eps := totalSum*1e-9 + 1e-9
	if diff := syncSum - totalSum; diff > eps || diff < -eps {
		t.Errorf("sync stages sum to %gs, end-to-end total %gs — stages do not partition the span", syncSum, totalSum)
	}

	// Fan-out shape: every query touched at least one shard, and the
	// ranged queries walked level-0 cover windows.
	if n := hists[flight.QStageFanoutMax].Count(); n != nq {
		t.Errorf("fanout_max has %d observations, want %d (every query ran at least one leg)", n, nq)
	}
	var expo strings.Builder
	if _, err := reg.WriteTo(&expo); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		flight.QueryShardsHistogramName + "_count 6",
		flight.QueryWindowsHistogramName + `_count{level="0"} `,
	} {
		if !strings.Contains(expo.String(), line) {
			t.Errorf("exposition is missing %q", line)
		}
	}

	// SlowQuery 0 force-records every spanned query: the ring must hold
	// the complete decode→plan→fanout→merge→encode→ack chain for each, in
	// causal (claim) order, with no slow_query marker (that needs a
	// positive threshold).
	evs := rec.Snapshot()
	want := []string{"query_decode", "query_plan", "query_fanout", "query_merge", "query_encode", "query_ack"}
	for seq := uint64(4); seq <= 9; seq++ {
		var kinds []string
		var lastClaim uint64
		for _, e := range evs {
			if e.FrameSeq != seq || e.Session != "qspan" {
				continue
			}
			if len(kinds) > 0 && e.Seq != lastClaim+1 {
				t.Fatalf("query %d chain not consecutive: claim %d after %d", seq, e.Seq, lastClaim)
			}
			lastClaim = e.Seq
			kinds = append(kinds, e.Kind)
		}
		if len(kinds) != len(want) {
			t.Fatalf("query %d ring chain = %v, want %v", seq, kinds, want)
		}
		for i := range want {
			if kinds[i] != want[i] {
				t.Fatalf("query %d ring chain = %v, want %v", seq, kinds, want)
			}
		}
	}
}

// TestExplainMatchesServedCover is the bit-for-bit acceptance check: the
// EXPLAIN trailer's cover legs and uncovered holes must be exactly the
// spans the equivalent RangeView reports — same windows, same bounds,
// same order — because Instrument fills the trailer from the same
// resolved cover the query served.
func TestExplainMatchesServedCover(t *testing.T) {
	_, wm, addr := startWindowedServer(t, Config{})
	c := dialRaw(t, addr)
	c.handshake()

	// Traffic in windows 0, 1, and 3 — window 2 never exists, so a range
	// over [0, 4s) must report it as an uncovered hole.
	seq := uint64(1)
	for _, win := range []int{0, 1, 3} {
		ts := uint64(winBase.Add(time.Duration(win) * time.Second).UnixNano())
		body, err := proto.AppendInsertAt(nil, seq, ts, []uint64{uint64(win + 1)}, []uint64{9}, []uint64{1})
		if err != nil {
			t.Fatal(err)
		}
		c.send(proto.KindInsertAt, body)
		c.expectAck(seq)
		seq++
	}
	c.send(proto.KindFlush, proto.AppendSeq(nil, seq))
	c.expectAck(seq)
	seq++

	t0 := winBase
	t1 := winBase.Add(4 * time.Second)
	c.query(proto.KindExplain, proto.Query{
		Seq: seq, Op: proto.KindRangeSummary,
		T0: uint64(t0.UnixNano()), T1: uint64(t1.UnixNano()),
	})
	f := c.next()
	if f.Kind != proto.KindExplainResp {
		t.Fatalf("explain reply kind %#x", f.Kind)
	}
	gotSeq, e, err := proto.ParseExplainResp(f.Body)
	if err != nil || gotSeq != seq {
		t.Fatalf("explain resp seq %d, %v; want seq %d", gotSeq, err, seq)
	}
	if e.Op != proto.KindRangeSummary {
		t.Fatalf("explain op %#x, want range summary", e.Op)
	}

	view, err := wm.QueryRange(t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	spans := view.Spans()
	if len(e.Legs) != len(spans) {
		t.Fatalf("explain legs %d, served cover has %d windows", len(e.Legs), len(spans))
	}
	for i, leg := range e.Legs {
		if int64(leg.Start) != spans[i].Start.UnixNano() || int64(leg.End) != spans[i].End.UnixNano() {
			t.Errorf("leg %d = [%d, %d), served span [%d, %d)",
				i, leg.Start, leg.End, spans[i].Start.UnixNano(), spans[i].End.UnixNano())
		}
		if leg.Level != 0 {
			t.Errorf("leg %d level %d, want 0 (no roll-ups configured)", i, leg.Level)
		}
		if leg.Shards != 2 {
			t.Errorf("leg %d shards %d, want 2 (barrier query on a 2-shard group)", i, leg.Shards)
		}
	}
	holes := view.Uncovered()
	if len(e.Uncovered) != len(holes) {
		t.Fatalf("explain uncovered %d holes, served view has %d (%v)", len(e.Uncovered), len(holes), holes)
	}
	for i, u := range e.Uncovered {
		if int64(u.Start) != holes[i].Start.UnixNano() || int64(u.End) != holes[i].End.UnixNano() {
			t.Errorf("hole %d = [%d, %d), served hole [%d, %d)",
				i, u.Start, u.End, holes[i].Start.UnixNano(), holes[i].End.UnixNano())
		}
	}
	// The skipped window must actually be in there.
	wantHole := [2]int64{winBase.Add(2 * time.Second).UnixNano(), winBase.Add(3 * time.Second).UnixNano()}
	found := false
	for _, u := range e.Uncovered {
		if int64(u.Start) == wantHole[0] && int64(u.End) == wantHole[1] {
			found = true
		}
	}
	if !found {
		t.Errorf("uncovered %v does not include the skipped window [%d, %d)", e.Uncovered, wantHole[0], wantHole[1])
	}
}

// TestQuerySpanPoolBalanced swaps the query tracer's span free-list for a
// leak-detecting pool and drives every span path — plain and ranged
// queries, EXPLAIN, and the Drop paths a refused range takes — then
// verifies every sampled span was returned exactly once.
func TestQuerySpanPoolBalanced(t *testing.T) {
	srv, _, addr := startWindowedServer(t, Config{TraceSample: 1})
	checked := pool.NewChecked(8, srv.qtracer.AllocSpan, nil)
	srv.qtracer.SetPool(checked)

	c := dialRaw(t, addr)
	c.handshake()
	body, err := proto.AppendInsertAt(nil, 1, uint64(winBase.UnixNano()), []uint64{3}, []uint64{4}, []uint64{5})
	if err != nil {
		t.Fatal(err)
	}
	c.send(proto.KindInsertAt, body)
	c.expectAck(1)

	t0 := uint64(winBase.UnixNano())
	t1 := uint64(winBase.Add(time.Second).UnixNano())
	c.query(proto.KindLookup, proto.Query{Seq: 2, Src: 3, Dst: 4})
	if f := c.next(); f.Kind != proto.KindLookupResp {
		t.Fatalf("lookup reply kind %#x", f.Kind)
	}
	c.query(proto.KindRangeSummary, proto.Query{Seq: 3, T0: t0, T1: t1})
	if f := c.next(); f.Kind != proto.KindSummaryResp {
		t.Fatalf("range summary reply kind %#x", f.Kind)
	}
	// A backwards range errors out of rangeView — the span must take the
	// Drop path and still return to the pool.
	c.query(proto.KindRangeSummary, proto.Query{Seq: 4, T0: t1, T1: t0})
	if f := c.next(); f.Kind != proto.KindError {
		t.Fatalf("backwards range reply kind %#x, want error", f.Kind)
	}
	// EXPLAIN spans too, on both the success and failure paths.
	c.query(proto.KindExplain, proto.Query{Seq: 5, Op: proto.KindRangeTopK,
		Axis: proto.AxisSources, K: 3, T0: t0, T1: t1})
	if f := c.next(); f.Kind != proto.KindExplainResp {
		t.Fatalf("explain reply kind %#x", f.Kind)
	}
	c.query(proto.KindExplain, proto.Query{Seq: 6, Op: proto.KindRangeLookup,
		Src: 3, Dst: 4, T0: t1, T1: t0})
	if f := c.next(); f.Kind != proto.KindError {
		t.Fatalf("backwards explain reply kind %#x, want error", f.Kind)
	}

	c.nc.Close()
	srv.Close()
	if err := checked.Verify(); err != nil {
		t.Fatal(err)
	}
	gets, puts := checked.Stats()
	if gets == 0 || gets != puts {
		t.Fatalf("span pool gets=%d puts=%d, want equal and nonzero", gets, puts)
	}
	// 5 sampled spans: the lookup, the two range queries, the two explains.
	if gets != 5 {
		t.Fatalf("span pool gets=%d, want 5 (one per query)", gets)
	}
}

// TestUntracedQueryDecodeAllocFree pins the off switch: with query
// tracing inactive the decode-side hooks every read op passes through —
// queryStart and sampleQuery — cost zero allocations (and skip even the
// clock read).
func TestUntracedQueryDecodeAllocFree(t *testing.T) {
	srv, _, _ := startServer(t, 1<<10, Config{})
	if srv.qtracer.Active() {
		t.Fatal("query tracer active without TraceSample or SlowQuery")
	}
	c := &conn{srv: srv, id: 1, session: "alloc"}
	req := request{kind: proto.KindLookup, seq: 9, q: proto.Query{Seq: 9, Op: proto.KindLookup, Src: 1, Dst: 2}}
	if a := testing.AllocsPerRun(200, func() {
		start := c.queryStart()
		if start != 0 {
			t.Fatal("inactive tracer read the clock")
		}
		c.sampleQuery(&req, start)
		if req.span != nil {
			t.Fatal("inactive tracer attached a span")
		}
	}); a != 0 {
		t.Fatalf("untraced query decode hooks allocate %.1f/op, budget is 0", a)
	}
}
