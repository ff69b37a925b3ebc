package flight

import (
	"sync/atomic"
	"time"

	"hhgb/internal/metrics"
	"hhgb/internal/pool"
)

// Stage is one leg of a sampled request's journey. Each plane numbers its
// own stages from zero, synchronous chain first: those share boundary
// timestamps, so they sum exactly to total (the reconciliation tests
// depend on it). Both planes open with decode and queue, so code that
// handles either kind of request closes those two with the ingest names.
type Stage uint8

// Ingest stages. The async ones are recorded by shard workers after the
// ack may already be on the wire (the server acks on queue-accept, not
// apply); each keeps the max across the frame's shard partitions,
// approximating the critical path.
const (
	// StageDecode: frame body parse into a pooled batch (reader goroutine).
	StageDecode Stage = iota
	// StageQueue: wait in the connection's bounded apply queue.
	StageQueue
	// StagePartition: the applier's matrix call — validate, dedup-check,
	// partition, and hand off to the shard queues.
	StagePartition
	// StageAck: response written back to the client.
	StageAck
	// StageShardWait: shard-queue wait, handoff to worker dequeue (async).
	StageShardWait
	// StageWAL: the frame's WAL append + group-commit share, on the
	// applier; folded like the async stages.
	StageWAL
	// StageApply: per-shard matrix apply (async).
	StageApply
	// StageTotal: decode start to ack written — what the client observes.
	StageTotal
)

// Query stages.
const (
	// QStageDecode: query frame body parse (reader goroutine).
	QStageDecode Stage = iota
	// QStageQueue: wait in the connection's bounded apply queue.
	QStageQueue
	// QStagePlan: cover/route selection — QueryRange's greedy cover walk
	// on a windowed store, the trivial shard route on a flat one.
	QStagePlan
	// QStageFanout: the per-shard (and per-window) fan-out: every cover
	// window's pushdown barrier, including the interleaved per-window
	// monoid merges a range query does between legs.
	QStageFanout
	// QStageMerge: the read-time merge tail after the last leg returns —
	// top-k selection, summary reduction, cross-window accumulation.
	QStageMerge
	// QStageEncode: response body build.
	QStageEncode
	// QStageAck: response handed to the connection writer.
	QStageAck
	// QStageFanoutMax: the slowest single fan-out leg (one cover window's
	// barrier on a windowed store, the whole pushdown call on a flat one),
	// folded by max like the ingest plane's per-shard stages.
	QStageFanoutMax
	// QStageTotal: decode start to response written.
	QStageTotal

	maxStages // the larger plane's stage count
)

// Histogram family names. Both planes observe one series per stage label;
// the query plane adds the fan-out-shape families.
const (
	StageHistogramName        = "hhgb_server_ingest_stage_seconds"
	QueryStageHistogramName   = "hhgb_query_stage_seconds"
	QueryShardsHistogramName  = "hhgb_query_shards_touched"
	QueryWindowsHistogramName = "hhgb_query_windows_touched"
)

// NoWindow is Touch's level for a fan-out leg that hit no window (a flat
// store's single pushdown call).
const NoWindow = -1

// countBuckets is the bucket layout for fan-out-shape histograms: counts,
// not seconds. Powers of two up to 256 place both a single-shard lookup
// and a cover that touched hundreds of fine windows.
var countBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// windowLevelLabels is the fixed label set for the windows-touched family:
// levels beyond the deepest practical roll-up hierarchy share "4+", so the
// metric schema stays pinned regardless of store configuration.
var windowLevelLabels = [...]string{"0", "1", "2", "3", "4+"}

// step is one ring event of a plane's pipeline record: the stage whose
// duration it carries and its kind. shape puts the fan-out shape in the
// event's a (shard tasks) and b (windows).
type step struct {
	stage Stage
	kind  Kind
	shape bool
}

// Plane is a span plane as data: everything a Tracer registers, observes
// and records for one kind of request. IngestPlane and QueryPlane are the
// two there are.
type Plane struct {
	family, help string
	labels       []string // stage label by Stage; the last stage is total
	// async marks, one bit per Stage, the stages folded by ObserveMax off
	// the sync chain. They are absent, not zero, on requests that never
	// reached them, so they are observed only when nonzero; their ring
	// events are stamped at the finalize instant. A sync event is stamped
	// at its stage's reconstructed end: span start plus every sync stage
	// up to and including it (ring-skipped ones too).
	async    uint16
	ring     []step // pipeline order
	slowKind Kind
	// Fan-out-shape families; empty for a plane without fan-out.
	shardsFamily, shardsHelp, windowsFamily, windowsHelp string
}

// IngestPlane traces insert frames.
var IngestPlane = &Plane{
	family: StageHistogramName,
	help:   "Sampled ingest frame latency decomposed by pipeline stage; decode+queue+partition+ack sum to total, wal is the applier's log append, shard_wait/apply are async worker attribution.",
	labels: []string{"decode", "queue", "partition", "ack", "shard_wait", "wal", "apply", "total"},
	async:  1<<StageShardWait | 1<<StageWAL | 1<<StageApply,
	ring: []step{
		{stage: StageDecode, kind: KindFrameDecode},
		{stage: StageQueue, kind: KindDequeue},
		{stage: StageWAL, kind: KindWALAppend},
		{stage: StageApply, kind: KindShardApply},
		{stage: StageAck, kind: KindAck},
	},
	slowKind: KindSlowFrame,
}

// QueryPlane traces read ops.
var QueryPlane = &Plane{
	family: QueryStageHistogramName,
	help:   "Sampled query latency decomposed by read-path stage; decode+queue+plan+fanout+merge+encode+ack sum to total, fanout_max is the slowest single fan-out leg.",
	labels: []string{"decode", "queue", "plan", "fanout", "merge", "encode", "ack", "fanout_max", "total"},
	async:  1 << QStageFanoutMax,
	ring: []step{
		{stage: QStageDecode, kind: KindQueryDecode},
		{stage: QStagePlan, kind: KindQueryPlan},
		{stage: QStageFanout, kind: KindQueryFanout, shape: true},
		{stage: QStageMerge, kind: KindQueryMerge},
		{stage: QStageEncode, kind: KindQueryEncode},
		{stage: QStageAck, kind: KindQueryAck},
	},
	slowKind:      KindSlowQuery,
	shardsFamily:  QueryShardsHistogramName,
	shardsHelp:    "Per-shard fan-out tasks one sampled query issued, summed across its cover windows.",
	windowsFamily: QueryWindowsHistogramName,
	windowsHelp:   "Cover windows one sampled query touched, per hierarchy level.",
}

// Histograms registers (or fetches, the registry dedups) the plane's
// stage family and returns the series indexed by Stage. A nil registry
// wires them to the discard registry.
func (p *Plane) Histograms(reg *metrics.Registry) []*metrics.Histogram {
	r := metrics.OrDiscard(reg)
	h := make([]*metrics.Histogram, len(p.labels))
	for st, label := range p.labels {
		h[st] = r.Histogram(p.family, p.help, nil, metrics.L("stage", label))
	}
	return h
}

// Span tracks one sampled request through its plane's pipeline. Spans are
// pooled; the tracer owns their lifecycle via a refcount — the owner holds
// one reference, each ingest shard partition carrying the frame holds one
// more, and the last release finalizes (observes histograms, records the
// ring, recycles). Stages are atomic because ingest shard workers fold
// into them concurrently; the fan-out shape is written only by the query
// plane, whose span has a single owner at every instant. All methods are
// nil-receiver safe, so unsampled requests cost one branch per call site.
type Span struct {
	t       *Tracer
	conn    uint64
	sess    string
	fseq    uint64
	start   int64 // Now() when decode began
	last    int64 // end of the previous sync stage
	handoff int64 // Now() when the frame entered the shard queues
	dropped bool  // refused/duplicate request: recycle without observing
	refs    atomic.Int32
	stages  [maxStages]atomic.Int64 // ns per stage
	// shape counts per-shard fan-out tasks (index 0, summed across legs)
	// and cover windows touched by level (1 + windowLevelLabels index).
	shape [1 + len(windowLevelLabels)]int64
}

// EndStage closes the current synchronous stage at the current clock:
// the stage's duration is the time since the previous stage boundary (or
// the span's start). Sync stages are single-threaded along the request's
// path (reader → channel → applier), which is what lets them share
// boundaries and sum exactly to total.
//
//hhgb:noalloc
func (s *Span) EndStage(st Stage) {
	if s == nil {
		return
	}
	now := Now()
	s.stages[st].Store(now - s.last)
	s.last = now
}

// AdvanceStage extends a stage to the current clock, accumulating: each
// call adds the time since the previous stage boundary. Fan-out uses it —
// a range query's legs interleave with per-window merges, so the fanout
// stage is advanced once per leg (the interleaved merges accrue to it)
// and the final merge tail is whatever EndStage(QStageMerge) closes
// afterwards. The stages still partition [start, last] exactly.
//
//hhgb:noalloc
func (s *Span) AdvanceStage(st Stage) {
	if s == nil {
		return
	}
	now := Now()
	s.stages[st].Add(now - s.last)
	s.last = now
}

// MarkHandoff stamps the instant the frame entered the shard queues;
// workers measure StageShardWait against it.
//
//hhgb:noalloc
func (s *Span) MarkHandoff() {
	if s == nil {
		return
	}
	s.handoff = Now()
}

// ObserveMax folds one duration into a max stage (an ingest shard's
// share, a query's fan-out leg), keeping the maximum — the critical path.
//
//hhgb:noalloc
func (s *Span) ObserveMax(st Stage, d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	ns := int64(d)
	for {
		cur := s.stages[st].Load()
		if ns <= cur || s.stages[st].CompareAndSwap(cur, ns) {
			return
		}
	}
}

// ObserveShardWait records the shard-queue wait: handoff mark to now,
// max across partitions.
//
//hhgb:noalloc
func (s *Span) ObserveShardWait() {
	if s == nil || s.handoff == 0 {
		return
	}
	s.ObserveMax(StageShardWait, time.Duration(Now()-s.handoff))
}

// Touch records one fan-out leg's shape: the hierarchy level of the
// window it hit (NoWindow for none) and the number of per-shard tasks it
// issued (1 for a routed lookup, the group's shard count for a barrier
// query).
//
//hhgb:noalloc
func (s *Span) Touch(level, shards int) {
	if s == nil {
		return
	}
	if level >= 0 {
		s.shape[1+min(level, len(windowLevelLabels)-1)]++
	}
	s.shape[0] += int64(shards)
}

// Hold adds one reference — taken once per shard partition the frame
// fans out to, before the partition is enqueued.
//
//hhgb:noalloc
func (s *Span) Hold() {
	if s != nil {
		s.refs.Add(1)
	}
}

// Done releases one reference; the last release finalizes the span
// (histograms observed, ring recorded, span recycled). After calling
// Done the caller must not touch the span again.
//
//hhgb:noalloc
func (s *Span) Done() {
	if s == nil {
		return
	}
	if s.refs.Add(-1) == 0 {
		s.t.finalize(s)
	}
}

// Drop abandons the span without observing it — for requests that were
// refused or deduplicated, whose timings would pollute the stage
// histograms. Only valid while the owner holds the sole reference.
//
//hhgb:noalloc
func (s *Span) Drop() {
	if s == nil {
		return
	}
	s.dropped = true
	s.Done()
}

// StageNanos returns a stage's recorded duration (test hook).
func (s *Span) StageNanos(st Stage) int64 { return s.stages[st].Load() }

// Tracer samples 1-in-N requests of one plane into pooled spans and owns
// their finalization. A nil *Tracer, or one with sample rate 0, never
// samples and adds zero allocations to the hot path (Sample is one
// atomic add).
type Tracer struct {
	p     *Plane
	rec   *Recorder
	every uint64 // sample 1 in every; 0 = never
	slow  int64  // ring-record threshold in ns; see NewTracer
	n     atomic.Uint64
	spans pool.Pool[*Span]
	hist  []*metrics.Histogram
	shape []*metrics.Histogram // by Span.shape index; empty without fan-out
}

// spanPoolSize bounds idle pooled spans; sampled requests in flight beyond
// it fall back to fresh allocations (recycled by the GC).
const spanPoolSize = 64

// NewTracer returns a tracer of plane p sampling one in every `every`
// requests (every < 1 disables sampling entirely — the tracer stays
// usable and free). The plane's histograms register on reg (nil =
// discard). Sampled spans whose total latency reaches `slow` are recorded
// stage-by-stage into rec as one causally ordered chain; slow == 0
// records every sampled span, slow < 0 records none. The plane's slow
// marker event is only emitted when slow > 0.
func NewTracer(p *Plane, reg *metrics.Registry, rec *Recorder, every int, slow time.Duration) *Tracer {
	t := &Tracer{p: p, rec: rec, slow: int64(slow), hist: p.Histograms(reg)}
	if every > 0 {
		t.every = uint64(every)
	}
	if p.shardsFamily != "" {
		r := metrics.OrDiscard(reg)
		t.shape = append(t.shape, r.Histogram(p.shardsFamily, p.shardsHelp, countBuckets))
		for _, lv := range windowLevelLabels {
			t.shape = append(t.shape, r.Histogram(p.windowsFamily, p.windowsHelp, countBuckets, metrics.L("level", lv)))
		}
	}
	t.spans = pool.New(spanPoolSize, t.AllocSpan)
	return t
}

// SetPool replaces the span free-list — tests swap in a pool.Checked to
// prove every sampled span is returned exactly once.
func (t *Tracer) SetPool(p pool.Pool[*Span]) { t.spans = p }

// AllocSpan allocates a fresh span owned by this tracer — the alloc hook
// a SetPool replacement needs, since a span finalizes through its tracer.
func (t *Tracer) AllocSpan() *Span { return &Span{t: t} }

// Active reports whether Sample can ever return a span — the hot path
// uses it to skip even the clock read when tracing is off.
//
//hhgb:noalloc
func (t *Tracer) Active() bool { return t != nil && t.every != 0 }

// Sample returns a reset span for this request if it is the 1-in-N pick,
// nil otherwise. start is the request's decode-begin instant (from Now).
// The caller owns the returned span's initial reference.
//
//hhgb:noalloc
func (t *Tracer) Sample(conn uint64, sess string, fseq uint64, start int64) *Span {
	if t == nil || t.every == 0 {
		return nil
	}
	if t.n.Add(1)%t.every != 0 {
		return nil
	}
	s := t.spans.Get()
	*s = Span{t: t, conn: conn, sess: sess, fseq: fseq, start: start, last: start}
	s.refs.Store(1)
	return s
}

// finalize runs on the goroutine releasing the span's last reference.
func (t *Tracer) finalize(s *Span) {
	if !s.dropped {
		total := s.last - s.start
		s.stages[len(t.hist)-1].Store(total)
		// The total is observed last, after the ring, the shape and every
		// other stage: a reader that waits on the total's count and then
		// reads the rest finds the span's whole record.
		if t.rec != nil && t.slow >= 0 && total >= t.slow {
			t.recordPipeline(s, total)
		}
		for i, h := range t.shape {
			if n := s.shape[i]; n > 0 {
				h.Observe(float64(n))
			}
		}
		for st, h := range t.hist {
			// The sync chain observes unconditionally to keep counts
			// reconcilable; async stages only when the request reached them.
			if d := max(s.stages[st].Load(), 0); d != 0 || t.p.async&(1<<st) == 0 {
				h.Observe(float64(d) / 1e9)
			}
		}
	}
	s.sess = "" // drop the session string reference before pooling
	t.spans.Put(s)
}

// recordPipeline writes the span's stages to the ring as one causally
// ordered run of events (consecutive claim numbers, the plane's ring
// order), capped by the plane's slow marker when slow > 0.
func (t *Tracer) recordPipeline(s *Span, total int64) {
	r := t.rec
	now := Now()
	end, next := s.start, Stage(0)
	for _, e := range t.p.ring {
		d := s.stages[e.stage].Load()
		ts := now
		if t.p.async&(1<<e.stage) != 0 {
			if d <= 0 {
				continue
			}
		} else {
			for ; next <= e.stage; next++ {
				end += s.stages[next].Load()
			}
			ts = end
		}
		var a, b uint64
		if e.shape {
			a = uint64(s.shape[0])
			for _, n := range s.shape[1:] {
				b += uint64(n)
			}
		}
		r.RecordAt(ts, e.kind, s.conn, s.sess, s.fseq, a, b, time.Duration(d))
	}
	if t.slow > 0 {
		r.RecordAt(end, t.p.slowKind, s.conn, s.sess, s.fseq, uint64(total), 0, time.Duration(total))
	}
}

// ExplainLeg is one fan-out leg of an explained query: the cover window
// it hit (level and event-time bounds; zero for a flat store's single
// leg), the per-shard tasks it issued, and how long the leg took.
type ExplainLeg struct {
	Level      int
	Start, End int64 // event-time bounds, unix nanoseconds
	Shards     int
	Dur        time.Duration
}

// ExplainSpan is one uncovered hole of an explained range query.
type ExplainSpan struct {
	Start, End int64
}

// QueryExplain collects the structured EXPLAIN trailer for one query:
// the served cover (one leg per window, timed), the uncovered holes, and
// per-leg fan-out shape. The server fills it alongside (or instead of) a
// sampled span; explain queries are diagnostic, so it may allocate.
type QueryExplain struct {
	Legs      []ExplainLeg
	Uncovered []ExplainSpan
}
