// Package flight is the server's latency-attribution plane: a fixed-size
// preallocated ring of structured events (the flight recorder) plus
// sampled spans that decompose end-to-end ingest and query latency into
// per-stage histograms.
//
// Everything here is built to ride the allocation-free ingest hot path:
// recording an event writes into a preallocated ring slot, spans come
// from a bounded free-list (internal/pool), and every method is safe on
// a nil receiver so unconfigured servers pay a single branch. Timestamps
// are monotonic nanoseconds from the package clock (clock.go, the only
// time.Now site — enforced by the hhgbinvariants timenow rule).
package flight

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies what a ring event records.
type Kind uint8

// Event kinds. The zero value is reserved so an unwritten slot can never
// render as a real event.
const (
	KindConnOpen Kind = 1 + iota
	KindConnClose
	KindFrameDecode
	KindDequeue
	KindWALAppend
	KindWALFsync
	KindShardApply
	KindAck
	KindRefusal
	KindEviction
	KindSeal
	KindRollup
	KindExpiry
	KindCheckpointBegin
	KindCheckpointEnd
	KindSlowFrame
	KindQueryDecode
	KindQueryPlan
	KindQueryFanout
	KindQueryMerge
	KindQueryEncode
	KindQueryAck
	KindSlowQuery
)

// kindNames are the kinds' JSON names, indexed by Kind.
var kindNames = [...]string{
	KindConnOpen:        "conn_open",
	KindConnClose:       "conn_close",
	KindFrameDecode:     "frame_decode",
	KindDequeue:         "dequeue",
	KindWALAppend:       "wal_append",
	KindWALFsync:        "wal_fsync",
	KindShardApply:      "shard_apply",
	KindAck:             "ack",
	KindRefusal:         "refusal",
	KindEviction:        "eviction",
	KindSeal:            "seal",
	KindRollup:          "rollup",
	KindExpiry:          "expiry",
	KindCheckpointBegin: "checkpoint_begin",
	KindCheckpointEnd:   "checkpoint_end",
	KindSlowFrame:       "slow_frame",
	KindQueryDecode:     "query_decode",
	KindQueryPlan:       "query_plan",
	KindQueryFanout:     "query_fanout",
	KindQueryMerge:      "query_merge",
	KindQueryEncode:     "query_encode",
	KindQueryAck:        "query_ack",
	KindSlowQuery:       "slow_query",
}

// String returns the kind's JSON name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// slot is one preallocated ring entry. Each slot carries its own mutex so
// writers only contend when the ring has wrapped all the way around onto
// a slot a dump is reading — there is no global lock on the record path.
type slot struct {
	mu   sync.Mutex
	seq  uint64 // claim number; slot is live iff seq ≡ claim order
	ts   int64  // monotonic ns (clock.go)
	kind Kind
	conn uint64
	sess string
	fseq uint64
	a, b uint64
	dur  int64
}

// Recorder is the flight recorder: a fixed-size ring of recent events.
// All methods are safe for concurrent use and on a nil receiver (every
// Record is then a no-op), so instrumented code never branches on
// whether a recorder is configured.
type Recorder struct {
	slots []slot
	mask  uint64
	next  atomic.Uint64 // claim counter; total events ever recorded
}

// DefaultRingSize is the event capacity NewRecorder rounds up to when
// asked for less than one slot.
const DefaultRingSize = 4096

// NewRecorder returns a recorder holding the most recent n events
// (rounded up to a power of two; n < 1 gets DefaultRingSize). All memory
// is allocated here — recording never allocates.
func NewRecorder(n int) *Recorder {
	if n < 1 {
		n = DefaultRingSize
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &Recorder{slots: make([]slot, size), mask: uint64(size - 1)}
}

// Record appends one event stamped with the current monotonic clock.
// conn/sess/fseq are correlation fields (zero values mean "not tied to a
// connection/session/frame"); a and b are kind-specific arguments; dur
// is the event's duration when it has one.
//
//hhgb:noalloc
func (r *Recorder) Record(k Kind, conn uint64, sess string, fseq uint64, a, b uint64, dur time.Duration) {
	if r == nil {
		return
	}
	r.record(Now(), k, conn, sess, fseq, a, b, int64(dur))
}

// RecordAt is Record with an explicit timestamp from the package clock —
// used when an event's true time was captured earlier than the call
// (e.g. span stages reconstructed at frame completion).
//
//hhgb:noalloc
func (r *Recorder) RecordAt(ts int64, k Kind, conn uint64, sess string, fseq uint64, a, b uint64, dur time.Duration) {
	if r == nil {
		return
	}
	r.record(ts, k, conn, sess, fseq, a, b, int64(dur))
}

//hhgb:noalloc
func (r *Recorder) record(ts int64, k Kind, conn uint64, sess string, fseq uint64, a, b uint64, dur int64) {
	seq := r.next.Add(1) - 1
	s := &r.slots[seq&r.mask]
	s.mu.Lock()
	s.seq = seq
	s.ts = ts
	s.kind = k
	s.conn = conn
	s.sess = sess
	s.fseq = fseq
	s.a, s.b = a, b
	s.dur = dur
	s.mu.Unlock()
}

// Len reports how many events have ever been recorded (not the ring
// occupancy; the ring keeps the most recent min(Len, capacity)).
func (r *Recorder) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Event is one dumped ring event. TS is monotonic nanoseconds on the
// package clock; Wall is the same instant rendered as wall time.
type Event struct {
	Seq      uint64    `json:"seq"`
	Wall     time.Time `json:"wall"`
	TS       int64     `json:"ts_ns"`
	Kind     string    `json:"kind"`
	Conn     uint64    `json:"conn,omitempty"`
	Session  string    `json:"session,omitempty"`
	FrameSeq uint64    `json:"frame_seq,omitempty"`
	A        uint64    `json:"a,omitempty"`
	B        uint64    `json:"b,omitempty"`
	Dur      int64     `json:"dur_ns"`
}

// Snapshot returns the ring's current events, oldest first. Events
// recorded while the snapshot runs may displace not-yet-copied old ones;
// each returned event is internally consistent (per-slot locking), and
// the sequence numbers reveal any gap.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	n := r.next.Load()
	start := uint64(0)
	if n > uint64(len(r.slots)) {
		start = n - uint64(len(r.slots))
	}
	out := make([]Event, 0, n-start)
	for seq := start; seq < n; seq++ {
		s := &r.slots[seq&r.mask]
		s.mu.Lock()
		if s.seq != seq || s.kind == 0 {
			s.mu.Unlock()
			continue // displaced by a newer event mid-snapshot
		}
		out = append(out, Event{
			Seq:      s.seq,
			Wall:     wallAt(s.ts),
			TS:       s.ts,
			Kind:     s.kind.String(),
			Conn:     s.conn,
			Session:  s.sess,
			FrameSeq: s.fseq,
			A:        s.a,
			B:        s.b,
			Dur:      s.dur,
		})
		s.mu.Unlock()
	}
	return out
}

// dump is the JSON envelope of a ring dump.
type dump struct {
	Recorded uint64  `json:"recorded_total"`
	Events   []Event `json:"events"`
}

// WriteJSON dumps the ring as one JSON object {"recorded_total", "events"}
// to w — the payload of /debug/events and the SIGQUIT stderr dump.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(dump{Recorded: r.Len(), Events: r.Snapshot()})
}

// Handler serves the ring dump as application/json (the /debug/events
// endpoint on the stats mux). Two optional query parameters narrow the
// dump so a slow-query chain can be pulled without the whole ring:
// ?kind=<name> keeps only events of that kind (exact Kind.String() name,
// e.g. kind=slow_query), and ?limit=N keeps only the most recent N of
// whatever survived the kind filter. A non-numeric or negative limit is
// a 400.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		events := r.Snapshot()
		if kind := q.Get("kind"); kind != "" {
			kept := events[:0]
			for _, ev := range events {
				if ev.Kind == kind {
					kept = append(kept, ev)
				}
			}
			events = kept
		}
		if lim := q.Get("limit"); lim != "" {
			n, err := strconv.Atoi(lim)
			if err != nil || n < 0 {
				http.Error(w, "bad limit: want a non-negative integer", http.StatusBadRequest)
				return
			}
			if n < len(events) {
				events = events[len(events)-n:]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(dump{Recorded: r.Len(), Events: events})
	})
}
