package server

import (
	"fmt"
	"testing"
	"time"

	"hhgb"
	"hhgb/internal/flight"
	"hhgb/internal/pool"
	"hhgb/internal/proto"
)

// TestIngestStageSpansReconcile streams sampled frames end to end and
// reconciles the two halves of the latency plane: the per-stage
// histograms must hold one observation per frame for every synchronous
// stage, the synchronous stages must sum to no more than the end-to-end
// total (they share boundaries, so the chain decode → queue → partition
// → ack is exact; the total additionally covers the async shard tail),
// and the flight-recorder ring must hold each frame's pipeline events in
// causal order.
func TestIngestStageSpansReconcile(t *testing.T) {
	reg := hhgb.NewMetrics()
	rec := hhgb.NewFlightRecorder(256)
	_, _, addr := startWindowedServer(t,
		Config{Metrics: reg, Flight: rec, TraceSample: 1, SlowFrame: 0},
		hhgb.WithMetrics(reg), hhgb.WithFlightRecorder(rec))

	const frames = 5
	c := dialRaw(t, addr)
	c.handshakeSession("flight", 0)
	for seq := uint64(1); seq <= frames; seq++ {
		ts := uint64(winBase.Add(time.Duration(seq) * time.Millisecond).UnixNano())
		body, err := proto.AppendInsertAt(nil, seq, ts, []uint64{seq, seq + 1}, []uint64{7, 8}, []uint64{1, 1})
		if err != nil {
			t.Fatal(err)
		}
		c.send(proto.KindInsertAt, body)
		c.expectAck(seq)
	}

	// A span finalizes when the last shard reference drops, which may
	// trail the ack; wait for all totals to land.
	hists := flight.IngestPlane.Histograms(reg)
	total := hists[flight.StageTotal]
	deadline := time.Now().Add(5 * time.Second)
	for total.Count() < frames {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d spans finalized", total.Count(), frames)
		}
		time.Sleep(5 * time.Millisecond)
	}

	sum := func(st flight.Stage) float64 {
		_, _, _, s := hists[st].Snapshot()
		return s
	}
	syncStages := []flight.Stage{flight.StageDecode, flight.StageQueue, flight.StagePartition, flight.StageAck}
	var syncSum float64
	for _, st := range syncStages {
		if n := hists[st].Count(); n != frames {
			t.Errorf("stage %d has %d observations, want %d", st, n, frames)
		}
		syncSum += sum(st)
	}
	totalSum := sum(flight.StageTotal)
	if totalSum <= 0 {
		t.Fatalf("total stage sum = %g, want > 0", totalSum)
	}
	if syncSum > totalSum*(1+1e-9)+1e-9 {
		t.Errorf("sync stages sum to %gs > end-to-end total %gs — stage boundaries overlap", syncSum, totalSum)
	}

	// SlowFrame 0 force-records every sampled frame: the ring must hold a
	// causally ordered pipeline for each, and the event claim order is the
	// causal order by construction.
	evs := rec.Snapshot()
	for seq := uint64(1); seq <= frames; seq++ {
		var order []string
		for _, e := range evs {
			if e.FrameSeq == seq && e.Session == "flight" {
				order = append(order, e.Kind)
			}
		}
		// Non-durable store: no wal_append leg; shard_apply may be 0ns on a
		// tiny batch and elided, but decode → dequeue → ack must be there.
		want := []string{"frame_decode", "dequeue", "ack"}
		got := order[:0:0]
		for _, k := range order {
			if k == "frame_decode" || k == "dequeue" || k == "ack" {
				got = append(got, k)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("frame %d pipeline events = %v, want at least %v (all: %v)", seq, got, want, order)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("frame %d pipeline out of order: %v, want %v", seq, order, want)
			}
		}
	}
}

// TestIngestSpanPoolBalanced is the ingest twin of
// TestQuerySpanPoolBalanced: it swaps the ingest tracer's span free-list
// for a leak-detecting pool, samples every frame of concurrent sessioned
// producers on a 2-shard matrix — so most spans are released by several
// shard workers — and adds the paths around the Drop calls: a duplicate
// retransmit and a rejected frame drop their span, and an overload
// refusal never takes one. After Close, every sampled span must have been
// returned exactly once.
func TestIngestSpanPoolBalanced(t *testing.T) {
	const maxInFlight = 1024
	srv, _, addr := startServer(t, 64, Config{TraceSample: 1, MaxInFlight: maxInFlight})
	checked := pool.NewChecked(8, srv.tracer.AllocSpan, nil)
	srv.tracer.SetPool(checked)

	// Each producer sends 40 frames plus one retransmit after a reconnect,
	// and ends on a Flush barrier: every shard has released its span
	// references by the time the producer returns.
	const producers, framesEach = 4, 40 + 1
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			errs <- leakProducer(addr, fmt.Sprintf("span-%d", p), int64(p+1), func(r, c, v uint64) {})
		}(p)
	}
	for p := 0; p < producers; p++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	c := dialRaw(t, addr)
	c.handshake()
	over := make([]uint64, maxInFlight+1)
	body, err := proto.AppendInsert(nil, 1, over, over, over)
	if err != nil {
		t.Fatal(err)
	}
	c.send(proto.KindInsert, body)
	c.expectError(1, proto.ErrCodeOverload)
	// A timestamped frame on a flat server is sampled, then rejected.
	body, err = proto.AppendInsertAt(nil, 2, 5, []uint64{1}, []uint64{2}, []uint64{3})
	if err != nil {
		t.Fatal(err)
	}
	c.send(proto.KindInsertAt, body)
	c.expectError(2, proto.ErrCodeRejected)

	c.nc.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := checked.Verify(); err != nil {
		t.Fatal(err)
	}
	gets, puts := checked.Stats()
	if want := int64(producers*framesEach + 1); gets != want || puts != gets {
		t.Fatalf("span pool gets=%d puts=%d, want %d each (every admitted frame sampled once)", gets, puts, want)
	}
}
