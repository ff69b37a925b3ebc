package flight

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hhgb/internal/metrics"
)

func TestRecorderKeepsMostRecent(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 20; i++ {
		r.Record(KindConnOpen, uint64(i), "s", 0, 0, 0, 0)
	}
	evs := r.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("snapshot holds %d events, ring size 8", len(evs))
	}
	for i, e := range evs {
		if want := uint64(12 + i); e.Seq != want {
			t.Fatalf("event %d seq = %d, want %d (oldest-first, most recent 8)", i, e.Seq, want)
		}
		if e.Conn != e.Seq {
			t.Fatalf("event %d conn = %d, want %d", i, e.Conn, e.Seq)
		}
		if e.Kind != "conn_open" || e.Session != "s" {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
	if r.Len() != 20 {
		t.Fatalf("Len = %d, want 20", r.Len())
	}
}

func TestRecorderTimestampsMonotone(t *testing.T) {
	r := NewRecorder(16)
	r.Record(KindSeal, 0, "", 0, 1, 2, time.Millisecond)
	r.Record(KindRollup, 0, "", 0, 0, 0, 0)
	evs := r.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[1].TS < evs[0].TS {
		t.Fatalf("timestamps went backwards: %d then %d", evs[0].TS, evs[1].TS)
	}
	if evs[0].A != 1 || evs[0].B != 2 || evs[0].Dur != int64(time.Millisecond) {
		t.Fatalf("args not preserved: %+v", evs[0])
	}
	// Wall times must differ by exactly the monotonic distance.
	if got := evs[1].Wall.Sub(evs[0].Wall); got != time.Duration(evs[1].TS-evs[0].TS) {
		t.Fatalf("wall delta %v != monotonic delta %v", got, time.Duration(evs[1].TS-evs[0].TS))
	}
}

func TestNilRecorderAndSpanSafe(t *testing.T) {
	var r *Recorder
	r.Record(KindAck, 1, "x", 2, 3, 4, 5)
	if r.Snapshot() != nil || r.Len() != 0 {
		t.Fatal("nil recorder not empty")
	}
	var s *Span
	s.EndStage(StageDecode)
	s.MarkHandoff()
	s.ObserveMax(StageWAL, time.Second)
	s.ObserveShardWait()
	s.AdvanceStage(QStageFanout)
	s.Touch(0, 1)
	s.Hold()
	s.Done()
	s.Drop()
	var tr *Tracer
	if tr.Active() {
		t.Fatal("nil tracer active")
	}
	if sp := tr.Sample(1, "s", 2, Now()); sp != nil {
		t.Fatal("nil tracer sampled")
	}
}

func TestHandlerServesValidJSON(t *testing.T) {
	r := NewRecorder(16)
	r.Record(KindConnOpen, 7, "sess-1", 0, 0, 0, 0)
	r.Record(KindConnClose, 7, "sess-1", 0, 0, 0, 0)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var d struct {
		Recorded uint64  `json:"recorded_total"`
		Events   []Event `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatalf("dump does not parse: %v\n%s", err, rec.Body.String())
	}
	if d.Recorded != 2 || len(d.Events) != 2 {
		t.Fatalf("dump = %+v", d)
	}
	if d.Events[0].Kind != "conn_open" || d.Events[1].Kind != "conn_close" {
		t.Fatalf("kinds = %s, %s", d.Events[0].Kind, d.Events[1].Kind)
	}
}

func TestTracerSamplesOneInN(t *testing.T) {
	tr := NewTracer(IngestPlane, nil, nil, 4, -1)
	if !tr.Active() {
		t.Fatal("tracer with rate 4 not active")
	}
	sampled := 0
	for i := 0; i < 400; i++ {
		if sp := tr.Sample(1, "s", uint64(i), Now()); sp != nil {
			sampled++
			sp.Done()
		}
	}
	if sampled != 100 {
		t.Fatalf("sampled %d of 400 at rate 4", sampled)
	}
	// Rate 0: enabled-but-disabled tracer never samples.
	off := NewTracer(IngestPlane, nil, nil, 0, -1)
	if off.Active() {
		t.Fatal("rate-0 tracer active")
	}
	for i := 0; i < 100; i++ {
		if sp := off.Sample(1, "s", uint64(i), Now()); sp != nil {
			t.Fatal("rate-0 tracer sampled")
		}
	}
}

// TestSpanSyncStagesSumToTotal pins the reconciliation invariant: the
// four synchronous stages share boundary timestamps, so their sum equals
// total exactly — not approximately.
func TestSpanSyncStagesSumToTotal(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := NewTracer(IngestPlane, reg, nil, 1, -1)
	hist := IngestPlane.Histograms(reg)

	sp := tr.Sample(3, "sess", 9, Now())
	if sp == nil {
		t.Fatal("rate-1 tracer did not sample")
	}
	sp.EndStage(StageDecode)
	time.Sleep(time.Millisecond)
	sp.EndStage(StageQueue)
	sp.MarkHandoff()
	sp.Hold() // one shard partition
	sp.EndStage(StagePartition)
	sp.EndStage(StageAck)

	// The "worker": async attribution arrives after the ack.
	sp.ObserveShardWait()
	sp.ObserveMax(StageWAL, 500*time.Microsecond)
	sp.ObserveMax(StageApply, 200*time.Microsecond)
	sum := sp.StageNanos(StageDecode) + sp.StageNanos(StageQueue) +
		sp.StageNanos(StagePartition) + sp.StageNanos(StageAck)
	sp.Done() // worker ref
	sp.Done() // owner ref — finalizes

	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), StageHistogramName) {
		t.Fatalf("no %s family in exposition:\n%s", StageHistogramName, b.String())
	}
	for st := range hist {
		if hist[st].Count() != 1 {
			t.Fatalf("stage %d observed %d times, want 1", st, hist[st].Count())
		}
	}
	_, _, _, totalSum := hist[StageTotal].Snapshot()
	_, _, _, syncSum := hist[StageDecode].Snapshot()
	for _, st := range []Stage{StageQueue, StagePartition, StageAck} {
		_, _, _, s := hist[st].Snapshot()
		syncSum += s
	}
	if diff := totalSum - syncSum; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("sync stage sum %.12f != total %.12f", syncSum, totalSum)
	}
	if float64(sum)/1e9 != totalSum {
		t.Fatalf("span nanos %.12f != observed total %.12f", float64(sum)/1e9, totalSum)
	}
}

// planeCase is one span plane as the tests below drive it: its table, a
// full sampled lifecycle (every stage the server marks, ending in the
// last Done), and the ring chain that lifecycle records.
type planeCase struct {
	name  string
	plane *Plane
	// drive runs one sampled span to finalization, sleeping mid-chain
	// when sleep > 0 so the span crosses a slow threshold.
	drive func(sp *Span, sleep time.Duration)
	chain []string
	slow  string // the slow marker's kind
}

var planes = []planeCase{
	{
		name:  "ingest",
		plane: IngestPlane,
		drive: func(sp *Span, sleep time.Duration) {
			sp.EndStage(StageDecode)
			if sleep > 0 {
				time.Sleep(sleep)
			}
			sp.EndStage(StageQueue)
			sp.MarkHandoff()
			sp.Hold() // one shard partition
			sp.EndStage(StagePartition)
			sp.EndStage(StageAck)
			// The "worker": async attribution arrives after the ack.
			sp.ObserveShardWait()
			sp.ObserveMax(StageWAL, time.Millisecond)
			sp.ObserveMax(StageApply, time.Millisecond)
			sp.Done() // worker ref
			sp.Done() // owner ref — finalizes
		},
		chain: []string{"frame_decode", "dequeue", "wal_append", "shard_apply", "ack"},
		slow:  "slow_frame",
	},
	{
		name:  "query",
		plane: QueryPlane,
		drive: func(sp *Span, sleep time.Duration) {
			sp.EndStage(QStageDecode)
			sp.EndStage(QStageQueue)
			sp.EndStage(QStagePlan)
			if sleep > 0 {
				time.Sleep(sleep)
			}
			sp.Touch(0, 2)
			sp.ObserveMax(QStageFanoutMax, time.Microsecond)
			sp.AdvanceStage(QStageFanout)
			sp.EndStage(QStageMerge)
			sp.EndStage(QStageEncode)
			sp.EndStage(QStageAck)
			sp.Done()
		},
		chain: []string{"query_decode", "query_plan", "query_fanout", "query_merge", "query_encode", "query_ack"},
		slow:  "slow_query",
	},
}

// TestTracerRecordsPipelineToRing pins, per plane, the three
// ring-recording regimes — slow < 0 never records; slow == 0 records every
// sampled span as one causally ordered run in the plane's exact order,
// with no marker; slow > 0 records only spans at or over the threshold and
// ends their chain with the slow marker carrying the total — and that a
// dropped span leaves no trace and no observations.
func TestTracerRecordsPipelineToRing(t *testing.T) {
	for _, pc := range planes {
		t.Run(pc.name, func(t *testing.T) {
			drive := func(tr *Tracer, fseq uint64, sleep time.Duration) {
				sp := tr.Sample(1, "s", fseq, Now())
				if sp == nil {
					t.Fatal("rate-1 tracer did not sample")
				}
				pc.drive(sp, sleep)
			}
			rec := NewRecorder(64)
			drive(NewTracer(pc.plane, nil, rec, 1, -1), 1, 0)
			if rec.Len() != 0 {
				t.Fatalf("slow<0 recorded %d events", rec.Len())
			}

			drive(NewTracer(pc.plane, nil, rec, 1, 0), 2, 0)
			evs := rec.Snapshot()
			if len(evs) != len(pc.chain) {
				t.Fatalf("slow=0 recorded %d events, want %d (no marker)", len(evs), len(pc.chain))
			}
			for i, e := range evs {
				if e.Kind != pc.chain[i] || e.FrameSeq != 2 {
					t.Fatalf("event %d = %+v, want kind %s for request 2", i, e, pc.chain[i])
				}
				if i > 0 && e.Seq != evs[i-1].Seq+1 {
					t.Fatalf("pipeline events not consecutive: seq %d after %d", e.Seq, evs[i-1].Seq)
				}
				switch {
				case e.Kind == "query_fanout" && (e.A != 2 || e.B != 1):
					t.Fatalf("fanout event shape a=%d b=%d, want 2 shard tasks over 1 window", e.A, e.B)
				case e.Kind != "query_fanout" && (e.A != 0 || e.B != 0):
					t.Fatalf("%s event carries a=%d b=%d, want none", e.Kind, e.A, e.B)
				}
			}

			slow := NewTracer(pc.plane, nil, rec, 1, 2*time.Millisecond)
			drive(slow, 3, 0) // fast: under threshold, not recorded
			if n := len(rec.Snapshot()); n != len(pc.chain) {
				t.Fatalf("fast span under slow>0 recorded: ring has %d events", n)
			}
			drive(slow, 4, 3*time.Millisecond)
			evs = rec.Snapshot()
			last := evs[len(evs)-1]
			if last.Kind != pc.slow || last.FrameSeq != 4 {
				t.Fatalf("last event = %+v, want %s for request 4", last, pc.slow)
			}
			if int64(last.A) != last.Dur || last.Dur < int64(2*time.Millisecond) {
				t.Fatalf("%s total = a:%d dur:%d", pc.slow, last.A, last.Dur)
			}
			var chain []string
			for _, e := range evs {
				if e.FrameSeq == 4 && e.Kind != pc.slow {
					chain = append(chain, e.Kind)
				}
			}
			if strings.Join(chain, ",") != strings.Join(pc.chain, ",") {
				t.Fatalf("slow chain = %v, want %v", chain, pc.chain)
			}

			reg := metrics.NewRegistry()
			tr := NewTracer(pc.plane, reg, rec, 1, 0)
			before := rec.Len()
			dp := tr.Sample(1, "s", 5, Now())
			dp.EndStage(StageDecode)
			dp.Drop()
			if rec.Len() != before {
				t.Fatal("dropped span recorded events")
			}
			for st, h := range tr.hist {
				if h.Count() != 0 {
					t.Fatalf("dropped span observed stage %d", st)
				}
			}
		})
	}
}

// TestAllocBudgets pins the tracing plane's hot-path allocation costs:
// ring records and nil spans are free, and so is the ingest plane's
// span lifecycle (see planeAllocBudgets).
func TestAllocBudgets(t *testing.T) {
	rec := NewRecorder(1024)
	if a := testing.AllocsPerRun(200, func() {
		rec.Record(KindAck, 1, "session", 2, 3, 4, 5)
	}); a != 0 {
		t.Fatalf("Record allocates %.1f/op, budget is 0", a)
	}

	// Nil-span methods (an unsampled request's per-stage cost) are free.
	var nilSpan *Span
	if a := testing.AllocsPerRun(200, func() {
		nilSpan.EndStage(StageDecode)
		nilSpan.AdvanceStage(QStageFanout)
		nilSpan.MarkHandoff()
		nilSpan.ObserveMax(QStageFanoutMax, time.Microsecond)
		nilSpan.ObserveShardWait()
		nilSpan.Touch(0, 1)
		nilSpan.Hold()
		nilSpan.Done()
		nilSpan.Drop()
	}); a != 0 {
		t.Fatalf("nil-span methods allocate %.1f/op, budget is 0", a)
	}

	planeAllocBudgets(t, planes[0], rec)
}

// TestQuerySpanAllocBudgets pins the query plane's span lifecycle costs
// (see planeAllocBudgets) — the same budgets as the ingest plane's.
func TestQuerySpanAllocBudgets(t *testing.T) {
	planeAllocBudgets(t, planes[1], NewRecorder(1024))
}

// planeAllocBudgets checks one plane: nil, rate-0 and unsampled tracers
// are free, and a warm sampled span's whole lifecycle — stages, fan-out
// shape, finalize, and with slow == 0 the ring record into rec —
// allocates nothing (spans are pooled, not sync.Pooled).
func planeAllocBudgets(t *testing.T, pc planeCase, rec *Recorder) {
	t.Helper()
	for _, off := range []struct {
		name string
		tr   *Tracer
	}{
		{"nil", nil},
		{"rate-0", NewTracer(pc.plane, nil, nil, 0, -1)},
		{"unsampled", NewTracer(pc.plane, nil, nil, 1<<30, -1)},
	} {
		if off.name != "unsampled" && off.tr.Active() {
			t.Fatalf("%s %s tracer active", pc.name, off.name)
		}
		if a := testing.AllocsPerRun(200, func() {
			if off.tr.Sample(1, "s", 2, Now()) != nil {
				t.Fatalf("%s %s tracer sampled", pc.name, off.name)
			}
		}); a != 0 {
			t.Fatalf("%s %s Sample allocates %.1f/op, budget is 0", pc.name, off.name, a)
		}
	}

	// Warm sampled lifecycle, span recycled each run: slow=-1 keeps the
	// ring out of it; with slow=0 RecordAt writes preallocated slots.
	for _, cfg := range []struct {
		name string
		slow time.Duration
	}{{"histograms-only", -1}, {"ring-recorded", 0}} {
		tr := NewTracer(pc.plane, nil, rec, 1, cfg.slow)
		pc.drive(tr.Sample(9, "sess", 1, Now()), 0)
		if a := testing.AllocsPerRun(200, func() {
			sp := tr.Sample(9, "sess", 1, Now())
			if sp == nil {
				t.Fatal("rate-1 did not sample")
			}
			pc.drive(sp, 0)
		}); a != 0 {
			t.Fatalf("%s %s: warm sampled span lifecycle allocates %.1f/op, budget is 0", pc.name, cfg.name, a)
		}
	}
}

// TestRecorderConcurrent hammers the ring from many goroutines while
// snapshots run — the per-slot locking must keep every dumped event
// internally consistent (checked via the conn==fseq tie) under -race.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(128)
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 5000; i++ {
				v := uint64(g)<<32 | uint64(i)
				r.Record(KindFrameDecode, v, "s", v, 0, 0, 0)
			}
		}(g)
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range r.Snapshot() {
				if e.Conn != e.FrameSeq {
					t.Errorf("torn event: conn %d fseq %d", e.Conn, e.FrameSeq)
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
}

// TestHandlerFilters: ?kind narrows the dump to one event kind, ?limit
// keeps only the most recent N survivors, and a bad limit is a 400 —
// the knobs that pull one slow-query chain out of a full ring.
func TestHandlerFilters(t *testing.T) {
	r := NewRecorder(32)
	for i := uint64(1); i <= 4; i++ {
		r.Record(KindAck, 1, "s", i, 0, 0, 0)
	}
	r.Record(KindSlowQuery, 1, "s", 9, 0, 0, 0)
	h := r.Handler()

	get := func(target string) (int, dump) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		var d dump
		if rec.Code == 200 {
			if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
				t.Fatalf("%s: dump does not parse: %v", target, err)
			}
		}
		return rec.Code, d
	}

	if code, d := get("/debug/events?kind=slow_query"); code != 200 || len(d.Events) != 1 || d.Events[0].Kind != "slow_query" {
		t.Fatalf("kind filter: code %d events %+v", code, d.Events)
	}
	if code, d := get("/debug/events?limit=2"); code != 200 || len(d.Events) != 2 {
		t.Fatalf("limit filter: code %d, %d events", code, len(d.Events))
	} else if d.Events[0].FrameSeq != 4 || d.Events[1].FrameSeq != 9 {
		t.Fatalf("limit did not keep the most recent events: %+v", d.Events)
	}
	if code, d := get("/debug/events?kind=ack&limit=1"); code != 200 || len(d.Events) != 1 || d.Events[0].FrameSeq != 4 {
		t.Fatalf("combined filter: code %d events %+v", code, d.Events)
	}
	// recorded_total stays the ring's true count, filtered or not.
	if _, d := get("/debug/events?kind=slow_query"); d.Recorded != 5 {
		t.Fatalf("recorded_total = %d under filter, want 5", d.Recorded)
	}
	if code, _ := get("/debug/events?limit=x"); code != 400 {
		t.Fatalf("bad limit: code %d, want 400", code)
	}
	if code, _ := get("/debug/events?limit=-1"); code != 400 {
		t.Fatalf("negative limit: code %d, want 400", code)
	}
}
