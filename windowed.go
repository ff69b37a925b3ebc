package hhgb

import (
	"fmt"
	"time"

	"hhgb/internal/gb"
	"hhgb/internal/hier"
	"hhgb/internal/window"
)

// ErrLate is returned (wrapped; test with errors.Is) by Windowed.Append
// when the batch's timestamp falls behind the seal frontier: the window
// that would hold it has already sealed. The batch was not applied;
// WindowStats.LateDrops counts the refused entries.
var ErrLate = window.ErrLate

// Windowed is a temporal traffic matrix: the insert stream is partitioned
// into fixed-duration event-time windows, each backed by its own sharded
// hierarchical cascade, with an optional roll-up hierarchy (sealed fine
// windows summed into coarser epochs — 1s → 1m → 1h with
// WithRollUps(60, 60)), per-level retention, and live per-window seal
// summaries via Subscribe. Time-range queries touch only the windows
// covering the range and answer bit-identically to a flat matrix holding
// exactly that range's traffic.
//
//	wm, _ := hhgb.NewWindowed(hhgb.IPv4Space, time.Second, hhgb.WithRollUps(60))
//	_ = wm.Append(pktTime, srcs, dsts)          // routed by event time
//	r, _ := wm.QueryRange(t0, t1)               // only windows in [t0, t1)
//	top, _ := r.TopSources(10)
//
// Windows seal when the event-time watermark passes their end by
// WithLateness (and on explicit Seal); sealing stops the window's ingest
// workers (it stays fully queryable), publishes its summary to every
// subscription, and — with WithDurability — takes its final checkpoint.
// All methods are safe for concurrent use.
type Windowed struct {
	s   *window.Store[uint64]
	dim uint64
}

// NewWindowed returns an empty windowed dim x dim traffic matrix with the
// given level-0 window duration. Options: WithRollUps, WithRetentions,
// WithLateness, plus the Sharded family (WithShards, WithQueueDepth,
// WithHandoff, WithCuts, WithGeometricCuts, WithDurability,
// WithSyncEvery) applied to every window's cascade group.
func NewWindowed(dim uint64, windowDur time.Duration, opts ...Option) (*Windowed, error) {
	o := options{cuts: hier.DefaultConfig().Cuts}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if o.syncEvery != 0 && o.durDir == "" {
		return nil, fmt.Errorf("%w: WithSyncEvery requires WithDurability", gb.ErrInvalidValue)
	}
	s, err := window.New[uint64](gb.Index(dim), gb.Index(dim), window.Config{
		Window:             windowDur,
		RollUps:            o.rollups,
		Retentions:         o.retentions,
		Lateness:           o.lateness,
		Shard:              o.shardConfig(o.durDir),
		Metrics:            window.NewMetrics(o.metrics),
		SubscriberQueue:    o.subQueue,
		SubscriberPatience: o.subPatience,
	})
	if err != nil {
		return nil, err
	}
	return &Windowed{s: s, dim: dim}, nil
}

// RecoverWindowed restores a durable Windowed matrix from the root
// directory a previous WithDurability matrix wrote. The store manifest
// fixes the dimension, window duration, roll-ups, retention, and lateness
// (so WithRollUps/WithRetentions/WithLateness/WithShards/WithCuts must
// not be passed); each retained window recovers through the shard layer
// with the usual durable-prefix and torn-tail guarantees — sealed windows
// come back sealed, active windows resume ingesting. WithQueueDepth,
// WithHandoff, and WithSyncEvery tune the recovered matrix as they would
// a new one.
func RecoverWindowed(dir string, opts ...Option) (*Windowed, error) {
	var o options
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if o.shards != 0 || o.cuts != nil || o.rollups != nil || o.retentions != nil || o.lateness != 0 {
		return nil, fmt.Errorf("%w: shape options are fixed by the recovered store manifest", gb.ErrInvalidValue)
	}
	if o.durDir != "" && o.durDir != dir {
		return nil, fmt.Errorf("%w: WithDurability(%q) conflicts with RecoverWindowed dir %q", gb.ErrInvalidValue, o.durDir, dir)
	}
	s, _, err := window.Recover[uint64](window.Config{
		Shard:              o.shardConfig(dir),
		Metrics:            window.NewMetrics(o.metrics),
		SubscriberQueue:    o.subQueue,
		SubscriberPatience: o.subPatience,
	})
	if err != nil {
		return nil, err
	}
	return &Windowed{s: s, dim: uint64(s.NRows())}, nil
}

// Dim returns the matrix dimension.
func (w *Windowed) Dim() uint64 { return w.dim }

// Window returns the level-0 window duration.
func (w *Windowed) Window() time.Duration { return w.s.Window() }

// Levels returns the number of hierarchy levels (1 + roll-up factors).
func (w *Windowed) Levels() int { return w.s.Levels() }

// Span returns one level's window duration.
func (w *Windowed) Span(level int) time.Duration { return w.s.Span(level) }

// Durable reports whether the matrix persists its windows.
func (w *Windowed) Durable() bool { return w.s.Durable() }

// Shards returns the shard count each window's cascade group runs with.
func (w *Windowed) Shards() int { return w.s.ShardsPerWindow() }

// AllTime resolves a range view over everything the matrix has observed
// (event time zero through the current watermark's window).
func (w *Windowed) AllTime() (*RangeView, error) {
	hi := w.s.Watermark() + int64(w.Window())
	r, err := w.s.QueryRange(0, hi)
	if err != nil {
		return nil, err
	}
	return &RangeView{r: r}, nil
}

// Watermark returns the largest event timestamp observed.
func (w *Windowed) Watermark() time.Time { return time.Unix(0, w.s.Watermark()) }

// SealedTo returns the seal frontier: appends before it fail with ErrLate.
func (w *Windowed) SealedTo() time.Time { return time.Unix(0, w.s.SealedTo()) }

// Append streams a batch of (src, dst) observations with weight 1 each,
// all stamped with the event time ts, into the window containing ts. Safe
// for concurrent use; the slices are copied before the call returns.
// Appends behind the seal frontier fail with ErrLate.
func (w *Windowed) Append(ts time.Time, src, dst []uint64) error {
	return w.AppendWeighted(ts, src, dst, unitWeights(len(src)))
}

// AppendWeighted streams a batch of weighted observations at event time
// ts; see Append.
func (w *Windowed) AppendWeighted(ts time.Time, src, dst, weight []uint64) error {
	return w.s.Append(ts.UnixNano(), src, dst, weight)
}

// AppendWeightedAtSession streams one timestamped insert frame under the
// exactly-once protocol: (session, seq) is the frame's dedup key, exactly
// as in Sharded.AppendWeightedSession. A duplicate — at or below the
// store frontier, or already held by the sealed window that would own ts
// — returns dup=true without applying anything; a genuinely late frame
// that was never applied still fails with ErrLate.
func (w *Windowed) AppendWeightedAtSession(session string, seq uint64, ts time.Time, src, dst, weight []uint64) (bool, error) {
	return w.AppendWeightedAtSessionSpan(session, seq, ts, src, dst, weight, nil)
}

// AppendWeightedAtSessionSpan is AppendWeightedAtSession carrying a
// sampled frame's latency span (see the network server's tracing); a
// nil span — the unsampled common case — costs nothing.
func (w *Windowed) AppendWeightedAtSessionSpan(session string, seq uint64, ts time.Time, src, dst, weight []uint64, sp *IngestSpan) (bool, error) {
	return w.s.AppendSession(session, seq, ts.UnixNano(), src, dst, weight, sp)
}

// SessionResume reports a session's resume frontier, like
// Sharded.SessionResume.
func (w *Windowed) SessionResume(session string) uint64 { return w.s.ResumeSeq(session) }

// SessionMint reports a session's seq-minting floor, like
// Sharded.SessionMint.
func (w *Windowed) SessionMint(session string) uint64 { return w.s.MintSeq(session) }

// Seal seals every window ending at or before upTo (aligned down to a
// window boundary), publishing their summaries and running any roll-ups
// and retention expiry they unlock — the clock-driven alternative to
// watermark sealing for quiet streams.
func (w *Windowed) Seal(upTo time.Time) error { return w.s.Seal(upTo.UnixNano()) }

// Flush drains and completes all pending ingest work in every active
// window; on a durable matrix it is a group-commit point.
func (w *Windowed) Flush() error { return w.s.Flush() }

// Checkpoint checkpoints every active window (sealed windows took their
// final checkpoint at seal time); ErrNotDurable without WithDurability.
func (w *Windowed) Checkpoint() error { return w.s.Checkpoint() }

// Close stops the matrix: active windows close WITHOUT sealing (they
// resume as active after RecoverWindowed) and every subscription ends.
// The matrix stays fully queryable; ingest fails with ErrClosed after.
func (w *Windowed) Close() error { return w.s.Close() }

// TimeSpan is one half-open event-time interval.
type TimeSpan struct {
	Start, End time.Time
}

// WindowStats counts the store's lifecycle events.
type WindowStats struct {
	Active    int   // windows currently accepting appends
	Sealed    int   // sealed windows currently retained (all levels)
	Seals     int64 // windows sealed so far
	RollUps   int64 // roll-up windows materialized
	Expired   int64 // windows removed by retention
	LateDrops int64 // entries refused with ErrLate
}

// WindowStats snapshots the lifecycle counters.
func (w *Windowed) WindowStats() WindowStats {
	st := w.s.Stats()
	return WindowStats{
		Active:    st.Active,
		Sealed:    st.Sealed,
		Seals:     st.Seals,
		RollUps:   st.RollUps,
		Expired:   st.Expired,
		LateDrops: st.LateDrops,
	}
}

// RangeView is a resolved time-range query: a cover of windows tiling the
// range, preferring roll-ups that fit entirely inside it. Every query on
// the view touches only the cover — cost scales with windows touched, not
// total stored entries — and answers exactly as a flat matrix holding the
// range's traffic would. The view stays valid after later seals, roll-ups,
// and expiry (its windows remain queryable), but describes the store as
// of resolution time.
type RangeView struct {
	r *window.Range[uint64]
}

// QueryRange resolves the cover of [t0, t1) (t0 aligned down, t1 up, to
// the window duration). Uncovered slices — data expired at the requested
// resolution — are reported on the view, never silently dropped.
func (w *Windowed) QueryRange(t0, t1 time.Time) (*RangeView, error) {
	r, err := w.s.QueryRange(t0.UnixNano(), t1.UnixNano())
	if err != nil {
		return nil, err
	}
	return &RangeView{r: r}, nil
}

// Instrument attaches a query span and/or an EXPLAIN collector to the
// view: the next query method's per-window fan-out legs are timed into
// them. Either argument may be nil; the explain trailer's cover and
// uncovered holes are filled immediately, from the same resolved cover
// Spans and Uncovered report. One query method per Instrument call.
func (v *RangeView) Instrument(sp *QuerySpan, ex *QueryExplain) { v.r.Instrument(sp, ex) }

// Windows returns the number of windows in the cover.
func (v *RangeView) Windows() int { return v.r.Windows() }

// Spans lists the cover's window spans in time order.
func (v *RangeView) Spans() []TimeSpan { return toTimeSpans(v.r.Spans()) }

// Uncovered lists the slices of the range no retained window could serve.
func (v *RangeView) Uncovered() []TimeSpan { return toTimeSpans(v.r.Uncovered) }

func toTimeSpans(spans []window.Span) []TimeSpan {
	out := make([]TimeSpan, len(spans))
	for i, s := range spans {
		out[i] = TimeSpan{Start: time.Unix(0, s.Start), End: time.Unix(0, s.End)}
	}
	return out
}

// Entries returns the number of distinct (src, dst) pairs in the range.
func (v *RangeView) Entries() (int, error) { return v.r.NVals() }

// TotalPackets returns the sum of all weights in the range.
func (v *RangeView) TotalPackets() (uint64, error) { return v.r.Total() }

// Lookup returns the accumulated weight for one (src, dst) pair over the
// range, summed across the cover's windows.
func (v *RangeView) Lookup(src, dst uint64) (uint64, bool, error) {
	return v.r.Lookup(gb.Index(src), gb.Index(dst))
}

// TopSources returns the k sources with the most traffic in the range.
func (v *RangeView) TopSources(k int) ([]Ranked, error) {
	return rankedFrom(v.r.TopRows(k))
}

// TopDestinations returns the k destinations with the most traffic in the
// range.
func (v *RangeView) TopDestinations(k int) ([]Ranked, error) {
	return rankedFrom(v.r.TopCols(k))
}

// Summary computes the aggregate statistics of the range's traffic.
func (v *RangeView) Summary() (Summary, error) {
	m, err := v.r.Materialize()
	if err != nil {
		return Summary{}, err
	}
	return summaryOf(m)
}

// WindowSummary is the per-window digest published when a window seals.
type WindowSummary struct {
	Level        int       // 0 = finest; roll-ups count upward
	Start, End   time.Time // the window's event-time bounds
	Entries      int       // distinct (src, dst) pairs
	Sources      int       // distinct sources with traffic
	Destinations int       // distinct destinations with traffic
	Packets      uint64    // sum of all weights
}

// WindowSub is a live feed of seal summaries: exactly one per sealed
// window, in seal order. Close it when done; the matrix's Close ends it.
type WindowSub struct {
	sub *window.Subscription[uint64]
}

// Subscribe registers a summary feed for the given levels (none = all).
// Windows sealed before the call are not replayed, and subscriptions do
// not survive RecoverWindowed.
func (w *Windowed) Subscribe(levels ...int) *WindowSub {
	return &WindowSub{sub: w.s.Subscribe(levels...)}
}

// Next blocks until the next summary and returns it; ok is false once the
// subscription is closed and drained. Summaries whose seal-time
// aggregation failed are skipped (the window still sealed).
func (s *WindowSub) Next() (WindowSummary, bool) {
	for {
		sum, ok := s.sub.Next()
		if !ok {
			return WindowSummary{}, false
		}
		if sum.Err != nil {
			continue
		}
		return WindowSummary{
			Level:        sum.Level,
			Start:        time.Unix(0, sum.Start),
			End:          time.Unix(0, sum.End),
			Entries:      sum.Entries,
			Sources:      sum.Sources,
			Destinations: sum.Destinations,
			Packets:      sum.Total,
		}, true
	}
}

// Evicted reports whether the store disconnected this subscription for
// staying full past the patience deadline (see WithSubscriberQueue).
// Once true, Next reports done immediately.
func (s *WindowSub) Evicted() bool { return s.sub.Evicted() }

// Close ends the subscription; Next drains what is queued, then reports
// done. Idempotent.
func (s *WindowSub) Close() { s.sub.Close() }
