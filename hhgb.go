// Package hhgb is the public facade of the hierarchical hypersparse
// GraphBLAS library: streaming traffic matrices that sustain millions of
// updates per second per instance by cascading hypersparse GraphBLAS
// matrices through the memory hierarchy (Kepner et al., IPDPS-W 2020).
//
// The flagship type is TrafficMatrix — an N-level hierarchical hypersparse
// matrix over a 2^64-capable index space with a streaming Update path and
// analysis-time queries:
//
//	tm, _ := hhgb.New(hhgb.IPv4Space)
//	_ = tm.Update(srcs, dsts)          // millions/second, batched
//	top, _ := tm.TopSources(10)        // supernode analysis
//
// For multi-core ingest, Sharded hash-partitions one logical matrix across
// independent cascades fed by worker goroutines — the single-node analogue
// of the paper's shared-nothing scaling — while answering the same queries:
//
//	sm, _ := hhgb.NewSharded(hhgb.IPv4Space)   // one shard per core
//	_ = sm.Update(srcs, dsts)                  // safe from any goroutine
//	_ = sm.Close()                             // drain; stays queryable
//
// A Sharded matrix becomes crash-safe with WithDurability: the matrix keeps
// one write-ahead log, appends each batch to it whole when it is accepted
// and syncs it with a group-commit policy, Checkpoint compacts the log into
// per-shard snapshots, and Recover rebuilds the matrix from the directory
// after a crash or restart:
//
//	sm, _ := hhgb.NewSharded(dim, hhgb.WithDurability(dir))
//	_ = sm.Flush()                             // group commit: batches durable
//	_ = sm.Checkpoint()                        // snapshot; the log rotates
//	sm, _ = hhgb.Recover(dir)                  // after a crash
//
// For continuous capture, Windowed partitions the stream into
// fixed-duration event-time windows — each its own sharded cascade —
// rolled up into coarser epochs, expired by retention, and queryable by
// time range at a cost proportional to the windows touched:
//
//	wm, _ := hhgb.NewWindowed(dim, time.Second, hhgb.WithRollUps(60, 60))
//	_ = wm.Append(ts, srcs, dsts)              // routed by event time
//	v, _ := wm.QueryRange(t0, t1)              // only the windows in range
//	sub := wm.Subscribe(0)                     // one summary per sealed window
//
// The GraphBLAS substrate, the associative arrays and the benchmark
// engines live in the internal packages; see README.md for the package
// map and docs/ARCHITECTURE.md for the end-to-end ingest, query-pushdown,
// and durability/recovery design.
package hhgb

import (
	"fmt"
	"sync/atomic"
	"time"

	"hhgb/internal/flight"
	"hhgb/internal/gb"
	"hhgb/internal/hier"
	"hhgb/internal/metrics"
	"hhgb/internal/stats"
)

// IPv4Space is the matrix dimension covering the IPv4 address space.
const IPv4Space uint64 = 1 << 32

// IPv6Space is the largest representable dimension (2^64 addresses are
// indexed 0 … 2^64-1; the dimension saturates at 2^64-1).
const IPv6Space uint64 = ^uint64(0)

// Option configures a TrafficMatrix or a Sharded matrix.
type Option func(*options) error

type options struct {
	cuts        []int
	shards      int
	queueDepth  int
	handoff     int
	durDir      string
	syncEvery   int
	rollups     []int
	retentions  []time.Duration
	lateness    time.Duration
	metrics     *Metrics
	subQueue    int
	subPatience time.Duration
	flight      *FlightRecorder
}

// windowedOnly reports whether any option applying only to NewWindowed
// was set; New and NewSharded reject those.
func (o *options) windowedOnly() bool {
	return o.rollups != nil || o.retentions != nil || o.lateness != 0 ||
		o.subQueue != 0 || o.subPatience != 0
}

// Metrics is a metric registry: counters, gauges, and fixed-bucket
// histograms rendered in Prometheus text exposition format by Handler or
// WriteTo. One registry is typically shared by the matrix (WithMetrics),
// the network server, and whatever else the process wants scraped.
type Metrics = metrics.Registry

// NewMetrics returns an empty metric registry.
func NewMetrics() *Metrics { return metrics.NewRegistry() }

// FlightRecorder is a fixed-size preallocated ring of structured
// operational events (WAL fsyncs, checkpoint phases, window seals,
// roll-ups, expiries — and, wired into the network server, connection
// and frame lifecycle). Recording is allocation-free and lock-light;
// the ring is dumpable as JSON at any time (WriteJSON, Handler). One
// recorder is typically shared by the matrix (WithFlightRecorder) and
// the network server.
type FlightRecorder = flight.Recorder

// IngestSpan is a sampled frame's stage-latency span, threaded through
// the session append paths by the network server. It is the same span
// type as QuerySpan, sampled by the ingest-plane tracer. Most callers
// never touch it; the plain Append methods pass nil.
type IngestSpan = flight.Span

// QuerySpan is a spanned read op's stage-latency span — the same type as
// IngestSpan, sampled by the query-plane tracer: the network server
// threads it through a RangeView (Instrument) so per-window fan-out legs
// attribute into the hhgb_query_stage_seconds histograms and the flight
// ring. Nil is always a valid span.
type QuerySpan = flight.Span

// QueryExplain is the structured EXPLAIN trailer collected alongside a
// query: the served cover (one timed leg per window), the uncovered
// holes, and per-leg fan-out shape. Attach one with
// RangeView.Instrument.
type QueryExplain = flight.QueryExplain

// NewFlightRecorder returns a flight recorder holding the most recent n
// events (rounded up to a power of two; n < 1 selects a 4096-event
// ring). All memory is allocated up front.
func NewFlightRecorder(n int) *FlightRecorder { return flight.NewRecorder(n) }

// WithFlightRecorder wires the matrix's structured event stream — WAL
// fsyncs, checkpoint begin/end, window seal/roll-up/expiry — into the
// given ring. Without it no events are recorded (each site costs one
// branch).
func WithFlightRecorder(r *FlightRecorder) Option {
	return func(o *options) error {
		if r == nil {
			return fmt.Errorf("%w: nil flight recorder", gb.ErrInvalidValue)
		}
		o.flight = r
		return nil
	}
}

// WithMetrics wires the matrix's instrumentation — shard batches applied,
// WAL fsync and checkpoint latency, queue depths, and (windowed) window
// lifecycle counts, seal lag, roll-up duration, subscriber health — into
// the given registry. Without it the instruments still update, into a
// registry nothing ever renders.
func WithMetrics(m *Metrics) Option {
	return func(o *options) error {
		if m == nil {
			return fmt.Errorf("%w: nil metrics registry", gb.ErrInvalidValue)
		}
		o.metrics = m
		return nil
	}
}

// WithSubscriberQueue bounds each window subscription's summary queue: a
// subscription at or over n queued summaries starts a patience clock (see
// WithSubscriberPatience), and one still full when it expires is evicted —
// closed, backlog dropped, WindowSub.Evicted reporting true. The bound is
// a trigger, not a hard cap: within patience, summaries keep queueing, so
// a consumer that recovers misses nothing. The default (0) keeps queues
// unbounded — no eviction, the pre-existing behavior. It applies only to
// NewWindowed/RecoverWindowed; New and NewSharded reject it.
func WithSubscriberQueue(n int) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("%w: subscriber queue bound %d < 1", gb.ErrInvalidValue, n)
		}
		o.subQueue = n
		return nil
	}
}

// WithSubscriberPatience sets how long a full subscription (see
// WithSubscriberQueue) is tolerated before eviction. The default with a
// queue bound set is 0: evict on the first publish that finds the queue
// at the bound. It applies only to NewWindowed/RecoverWindowed.
func WithSubscriberPatience(d time.Duration) Option {
	return func(o *options) error {
		if d <= 0 {
			return fmt.Errorf("%w: subscriber patience %v <= 0", gb.ErrInvalidValue, d)
		}
		o.subPatience = d
		return nil
	}
}

// WithCuts sets explicit cascade cuts c1 … c(N-1); the matrix has
// len(cuts)+1 levels. An empty slice selects a single flat level.
func WithCuts(cuts []int) Option {
	return func(o *options) error {
		o.cuts = append([]int(nil), cuts...)
		return nil
	}
}

// WithGeometricCuts sets levels with cuts base, base*ratio, base*ratio², …
// — the tuning family from the paper's Section II.
func WithGeometricCuts(levels, base, ratio int) Option {
	return func(o *options) error {
		if levels < 1 || base < 1 || ratio < 1 {
			return fmt.Errorf("%w: geometric cuts need levels/base/ratio >= 1", gb.ErrInvalidValue)
		}
		o.cuts = hier.GeometricCuts(levels, base, ratio)
		return nil
	}
}

// WithShards sets the shard count of a Sharded matrix: the number of
// independent hierarchical cascades (and ingest worker goroutines) the
// logical matrix is hash-partitioned across. The default is
// runtime.GOMAXPROCS(0). It applies only to NewSharded; New rejects it.
func WithShards(n int) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("%w: shard count %d < 1", gb.ErrInvalidValue, n)
		}
		o.shards = n
		return nil
	}
}

// WithQueueDepth sets the per-shard ingest queue depth in batches for a
// Sharded matrix (default 8). Deeper queues decouple bursty producers from
// a momentarily-cascading shard at the cost of more buffered batches. It
// applies only to NewSharded; New rejects it.
func WithQueueDepth(n int) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("%w: queue depth %d < 1", gb.ErrInvalidValue, n)
		}
		o.queueDepth = n
		return nil
	}
}

// WithHandoff sets the per-shard producer buffer size in entries for a
// Sharded matrix (default 4096): each producer's entries for a shard are
// buffered locally and handed to the shard worker once the buffer reaches
// this size (and at every flush or query barrier). Larger buffers amortize
// queue handoffs further; smaller ones reduce the batch latency floor. It
// applies only to NewSharded; New rejects it.
func WithHandoff(n int) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("%w: handoff size %d < 1", gb.ErrInvalidValue, n)
		}
		o.handoff = n
		return nil
	}
}

// WithDurability makes a Sharded matrix crash-safe: the matrix writes one
// write-ahead log under dir, appending every accepted batch to it whole
// before any shard sees it, and Checkpoint (and Close) serialize
// per-shard snapshots plus a manifest there, truncating the log. Flush
// becomes a group-commit point — every batch accepted before it survives
// a crash — and Recover restores the matrix from the same directory after
// one. The directory must not already hold a durable
// matrix (restore that with Recover instead). It applies only to
// NewSharded; New rejects it. See docs/ARCHITECTURE.md for the on-disk
// layout and the crash-window guarantees.
func WithDurability(dir string) Option {
	return func(o *options) error {
		if dir == "" {
			return fmt.Errorf("%w: durability directory must be non-empty", gb.ErrInvalidValue)
		}
		o.durDir = dir
		return nil
	}
}

// WithSyncEvery sets the group-commit interval of a durable Sharded
// matrix: its log is fsynced after every n logged batches (default 64; 1
// makes every batch durable before the call that appended it returns).
// Barriers — Flush, Checkpoint, Close — always sync regardless, so n only
// bounds how much accepted-but-unsynced tail a crash between barriers can
// lose. A batch is one log record, so a crash keeps it on every shard or
// on none, and recovery restores a prefix of the accepted batches.
// Requires WithDurability.
func WithSyncEvery(n int) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("%w: sync interval %d < 1", gb.ErrInvalidValue, n)
		}
		o.syncEvery = n
		return nil
	}
}

// WithRollUps configures a Windowed matrix's roll-up hierarchy: level i+1
// windows span factors[i] level-i windows (each factor >= 2), merged by
// matrix addition as soon as their span seals. WithRollUps(60, 60) over a
// one-second window yields the 1s → 1m → 1h cascade. It applies only to
// NewWindowed; New and NewSharded reject it.
func WithRollUps(factors ...int) Option {
	return func(o *options) error {
		if len(factors) == 0 {
			return fmt.Errorf("%w: WithRollUps needs at least one factor", gb.ErrInvalidValue)
		}
		for i, f := range factors {
			if f < 2 {
				return fmt.Errorf("%w: roll-up factor %d at level %d (need >= 2)", gb.ErrInvalidValue, f, i)
			}
		}
		o.rollups = append([]int(nil), factors...)
		return nil
	}
}

// WithRetentions sets a Windowed matrix's per-level retention: a sealed
// level-i window is expired (removed, durable state deleted) once the
// watermark passes its end by per[i]; zero (or a missing level) keeps
// that level forever. Expired fine windows keep serving aligned
// long-range queries through their roll-ups, so a level's retention
// should be at least the next level's span. It applies only to
// NewWindowed; New and NewSharded reject it.
func WithRetentions(per ...time.Duration) Option {
	return func(o *options) error {
		for i, d := range per {
			if d < 0 {
				return fmt.Errorf("%w: negative retention %v at level %d", gb.ErrInvalidValue, d, i)
			}
		}
		o.retentions = append([]time.Duration(nil), per...)
		return nil
	}
}

// WithLateness sets a Windowed matrix's out-of-orderness budget: a window
// seals only once the event-time watermark passes its end by d, so
// stragglers up to d behind the newest timestamp still land. Appends
// behind the resulting frontier fail with ErrLate. The default is 0
// (windows seal the moment the watermark crosses their end). It applies
// only to NewWindowed; New and NewSharded reject it.
func WithLateness(d time.Duration) Option {
	return func(o *options) error {
		if d < 0 {
			return fmt.Errorf("%w: negative lateness %v", gb.ErrInvalidValue, d)
		}
		o.lateness = d
		return nil
	}
}

// Ranked is one entry of a top-k result.
type Ranked struct {
	ID    uint64 // source or destination id (e.g. an IP address index)
	Value uint64 // packets or peer count
}

// Summary aggregates the headline statistics of the accumulated matrix.
type Summary struct {
	Entries      int    // stored (src, dst) pairs
	Sources      int    // distinct sources with traffic
	Destinations int    // distinct destinations with traffic
	TotalPackets uint64 // sum of all update weights
	MaxOutDegree uint64 // largest per-source fan-out
	MaxInDegree  uint64 // largest per-destination fan-in
}

// CascadeStats reports the ingest-side work counters.
type CascadeStats struct {
	Updates         int64   // entries ingested
	Batches         int64   // Update calls
	Cascades        []int64 // per-level promotion counts
	CascadedEntries []int64 // entries moved per level boundary
}

// TrafficMatrix is a streaming origin-destination traffic matrix backed by
// a hierarchical hypersparse GraphBLAS cascade. It is not safe for
// concurrent use; run one instance per ingest goroutine (the shared-nothing
// pattern the paper scales to 31,000 instances) or guard it externally.
type TrafficMatrix struct {
	h   *hier.Matrix[uint64]
	dim uint64
}

// New returns an empty dim x dim traffic matrix. With no options it uses
// the default 4-level geometric cascade.
func New(dim uint64, opts ...Option) (*TrafficMatrix, error) {
	var o options
	o.cuts = hier.DefaultConfig().Cuts
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if o.shards != 0 || o.queueDepth != 0 || o.handoff != 0 {
		return nil, fmt.Errorf("%w: sharding options apply to NewSharded, not New", gb.ErrInvalidValue)
	}
	if o.durDir != "" || o.syncEvery != 0 {
		return nil, fmt.Errorf("%w: durability options apply to NewSharded, not New", gb.ErrInvalidValue)
	}
	if o.windowedOnly() {
		return nil, fmt.Errorf("%w: windowing options apply to NewWindowed, not New", gb.ErrInvalidValue)
	}
	h, err := hier.New[uint64](gb.Index(dim), gb.Index(dim), hier.Config{Cuts: o.cuts})
	if err != nil {
		return nil, err
	}
	return &TrafficMatrix{h: h, dim: dim}, nil
}

// Dim returns the matrix dimension.
func (t *TrafficMatrix) Dim() uint64 { return t.dim }

// Levels returns the cascade depth.
func (t *TrafficMatrix) Levels() int { return t.h.NumLevels() }

// Update streams a batch of (src, dst) observations with weight 1 each.
// The slices must have equal length. This is the paper's headline
// operation: amortized cost is dominated by sorting each batch once and
// merging inside the cache-resident lowest level.
func (t *TrafficMatrix) Update(src, dst []uint64) error {
	return t.UpdateWeighted(src, dst, unitWeights(len(src)))
}

// UpdateWeighted streams a batch of weighted observations (e.g. packet or
// byte counts).
func (t *TrafficMatrix) UpdateWeighted(src, dst, weight []uint64) error {
	return t.h.Update(src, dst, weight)
}

// Entries returns the number of distinct (src, dst) pairs accumulated.
// It materializes a query, so it is an analysis-time call.
func (t *TrafficMatrix) Entries() (int, error) { return t.h.NVals() }

// Do materializes the accumulated matrix and visits every entry in
// row-major order, stopping early if f returns false.
func (t *TrafficMatrix) Do(f func(src, dst, packets uint64) bool) error {
	q, err := t.h.Query()
	if err != nil {
		return err
	}
	q.Iterate(func(i, j gb.Index, v uint64) bool {
		return f(uint64(i), uint64(j), v)
	})
	return nil
}

// Lookup returns the accumulated weight for one (src, dst) pair and
// whether any traffic was recorded for it.
func (t *TrafficMatrix) Lookup(src, dst uint64) (uint64, bool, error) {
	q, err := t.h.Query()
	if err != nil {
		return 0, false, err
	}
	return lookupIn(q, src, dst)
}

// TopSources returns the k sources with the most total traffic.
func (t *TrafficMatrix) TopSources(k int) ([]Ranked, error) {
	q, err := t.h.Query()
	if err != nil {
		return nil, err
	}
	return topSourcesOf(q, k)
}

// TopDestinations returns the k destinations with the most total traffic.
func (t *TrafficMatrix) TopDestinations(k int) ([]Ranked, error) {
	q, err := t.h.Query()
	if err != nil {
		return nil, err
	}
	return topDestinationsOf(q, k)
}

// ones is the shared all-ones block the unit-weight Update/Append methods
// pass to their weighted twins. gb.Index is uint64, so src and dst go to the
// ingest layers as they are, and every sink copies its input before
// returning and none writes to it — which is what lets one block serve
// every caller. A published block is never written again, only replaced by
// a longer one, so concurrent readers need no lock.
var ones atomic.Pointer[[]uint64]

// unitWeights returns n weights of 1, allocating only when n exceeds
// every batch seen before.
func unitWeights(n int) []uint64 {
	if p := ones.Load(); p != nil && len(*p) >= n {
		return (*p)[:n:n]
	}
	block := make([]uint64, n)
	for k := range block {
		block[k] = 1
	}
	ones.Store(&block)
	return block
}

// lookupIn extracts one entry from a materialized query matrix.
func lookupIn(q *gb.Matrix[uint64], src, dst uint64) (uint64, bool, error) {
	v, err := q.ExtractElement(gb.Index(src), gb.Index(dst))
	if err != nil {
		if err == gb.ErrNoValue {
			return 0, false, nil
		}
		return 0, false, err
	}
	return v, true, nil
}

// topSourcesOf ranks per-source traffic of a materialized query matrix.
func topSourcesOf(q *gb.Matrix[uint64], k int) ([]Ranked, error) {
	v, err := stats.OutTraffic(q)
	if err != nil {
		return nil, err
	}
	return rankedOf(v, k)
}

// topDestinationsOf ranks per-destination traffic of a materialized query
// matrix.
func topDestinationsOf(q *gb.Matrix[uint64], k int) ([]Ranked, error) {
	v, err := stats.InTraffic(q)
	if err != nil {
		return nil, err
	}
	return rankedOf(v, k)
}

// summaryOf computes the aggregate statistics of a materialized query
// matrix.
func summaryOf(q *gb.Matrix[uint64]) (Summary, error) {
	s, err := stats.Summarize(q)
	if err != nil {
		return Summary{}, err
	}
	return Summary{
		Entries:      s.Entries,
		Sources:      s.Sources,
		Destinations: s.Destinations,
		TotalPackets: s.TotalPackets,
		MaxOutDegree: s.MaxOutDegree,
		MaxInDegree:  s.MaxInDegree,
	}, nil
}

func rankedOf(v *gb.Vector[uint64], k int) ([]Ranked, error) {
	top, err := stats.TopK(v, k)
	if err != nil {
		return nil, err
	}
	out := make([]Ranked, len(top))
	for i, e := range top {
		out[i] = Ranked{ID: uint64(e.Index), Value: e.Value}
	}
	return out, nil
}

// rankedFrom converts a pushed-down top-k result, passing its error through.
func rankedFrom(top []stats.Top[uint64], err error) ([]Ranked, error) {
	if err != nil {
		return nil, err
	}
	out := make([]Ranked, len(top))
	for i, e := range top {
		out[i] = Ranked{ID: uint64(e.Index), Value: e.Value}
	}
	return out, nil
}

// Summary computes the aggregate statistics of the accumulated matrix.
func (t *TrafficMatrix) Summary() (Summary, error) {
	q, err := t.h.Query()
	if err != nil {
		return Summary{}, err
	}
	return summaryOf(q)
}

// Stats returns the cumulative ingest counters.
func (t *TrafficMatrix) Stats() CascadeStats { return cascadeStatsOf(t.h.Stats()) }

func cascadeStatsOf(s hier.Stats) CascadeStats {
	return CascadeStats{
		Updates:         s.Updates,
		Batches:         s.Batches,
		Cascades:        s.Cascades,
		CascadedEntries: s.CascadedEntries,
	}
}

// Reset empties the matrix, keeping its configuration.
func (t *TrafficMatrix) Reset() { t.h.Clear() }
