// Package window is the temporal frontend of the sharded ingest engine: a
// Store partitions the insert stream into fixed-duration time windows, each
// backed by its own shard.Group cascade, and arranges the sealed windows
// into a roll-up hierarchy (fine windows summed into coarser epochs by
// matrix addition — the time-axis analogue of the paper's hierarchical
// accumulation, following "Vertical, Temporal, and Horizontal Scaling of
// Hierarchical Hypersparse GraphBLAS Matrices", arXiv:2108.06650).
//
// # Windows and sealing
//
// Every append carries an event timestamp; the entry lands in the level-0
// window [k·W, (k+1)·W) containing it, where W is Config.Window. The store
// tracks the high watermark (largest timestamp seen) and seals a window
// once the watermark passes its end by Config.Lateness: sealing excludes
// in-flight appends (a per-window barrier), closes the window's group —
// its ingest workers stop, the matrix stays fully queryable, and a durable
// window takes its final checkpoint — and publishes a per-window Summary
// to every Subscription, in seal order. Appends older than the seal
// frontier fail with ErrLate (counted, never silently dropped).
//
// # Roll-ups and retention
//
// Config.RollUps defines coarser levels: with Window = 1s and RollUps =
// {60, 60}, sealed 1s windows are summed into 1m windows, and those into
// 1h windows, as soon as the watermark passes the coarse span. Because
// GraphBLAS addition is linear, a roll-up window is exactly the sum of its
// children — so a range query may answer from one coarse matrix instead of
// many fine ones, and retention (Config.Retentions, per level) can expire
// the fine windows while the coarse ones keep serving long-range queries.
// Expiry closes and removes a sealed window (and deletes its durable
// state); a Range resolved before the expiry keeps working — closed groups
// remain queryable, so an in-flight query never races a deletion.
//
// # Range queries
//
// QueryRange(t0, t1) resolves a cover: a set of non-overlapping windows
// whose spans tile [t0, t1), preferring the coarsest window that fits
// entirely inside the range (one roll-up matrix instead of its many
// children). Only the cover's windows are ever touched — per-window query
// counters prove it — and each query merges the per-window, per-shard
// pushdown results exactly as the shard layer merges shards: totals and
// sums add, top-k ranks the merged vector, Lookup sums the (at most one
// per window) cells. The result is bit-identical to materializing the
// cover into one flat matrix and querying that.
package window

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hhgb/internal/flight"
	"hhgb/internal/gb"
	"hhgb/internal/shard"
)

// ErrClosed is returned by Append, Seal, Flush, and Checkpoint after Close.
var ErrClosed = errors.New("window: store is closed")

// ErrLate is returned (wrapped; test with errors.Is) by Append when the
// batch's timestamp falls in a window that has already been sealed: the
// watermark passed it by more than Config.Lateness. The batch was not
// applied; Stats().LateDrops counts the dropped entries.
var ErrLate = errors.New("window: timestamp behind the seal frontier")

// Config describes a temporal window store.
type Config struct {
	// Window is the level-0 window duration. Required, > 0.
	Window time.Duration
	// RollUps lists the per-level roll-up factors: level i+1 windows span
	// RollUps[i] level-i windows (each factor must be >= 2). Empty keeps a
	// single level.
	RollUps []int
	// Retentions is the per-level retention: a sealed level-i window is
	// expired once the watermark passes its end by Retentions[i]. Zero (or
	// a missing entry) keeps that level forever. Expiring a level that
	// still feeds an un-materialized roll-up loses data for long-range
	// queries; retentions should be at least the parent level's span.
	Retentions []time.Duration
	// Lateness is the out-of-orderness budget: a window [s, s+W) seals
	// once watermark >= s+W+Lateness. Appends behind the frontier fail
	// with ErrLate.
	Lateness time.Duration
	// Shard configures every window's shard.Group. Shard.Durable.Dir, when
	// set, is the STORE root: each window persists under its own
	// subdirectory, and Recover restores the whole store from the root.
	Shard shard.Config
	// Metrics receives the window layer's instruments. Nil wires them to
	// the discard registry and skips the per-store sampled gauges.
	Metrics *Metrics
	// SubscriberQueue bounds each subscription's summary queue: a
	// subscription at or over the bound starts its patience clock, and
	// one still full when the clock passes SubscriberPatience is evicted
	// (see Subscription). Zero keeps the queue unbounded — no eviction.
	SubscriberQueue int
	// SubscriberPatience is how long a full subscription is tolerated
	// before eviction. Zero evicts on the first over-bound publish.
	SubscriberPatience time.Duration
}

// State of one window in its lifecycle.
type State int32

const (
	// Active: the window's group is live and accepting appends.
	Active State = iota
	// Sealing: picked for sealing; appends are already refused.
	Sealing
	// Sealed: closed (workers stopped, queryable), summary published.
	Sealed
	// Expired: removed by retention; only visible in counters.
	Expired
)

func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Sealing:
		return "sealing"
	case Sealed:
		return "sealed"
	case Expired:
		return "expired"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// atomicState is a State loaded and stored atomically.
type atomicState struct{ v atomic.Int32 }

func (a *atomicState) Load() State   { return State(a.v.Load()) }
func (a *atomicState) Store(s State) { a.v.Store(int32(s)) }

// key identifies a window: its level and aligned start time.
type key struct {
	level int
	start int64
}

// win is one window: a shard.Group plus lifecycle state.
//
// Locking: queries and rolled are guarded by the store mutex. state is
// written only under the store mutex, atomically so that queries and
// Flush may read it without the lock. wmu is the append/seal barrier: an
// appender takes it shared under the store mutex, right after finding
// the window Active and before scheduling any seal, and holds it around
// g.Update; sealWin takes it exclusively once state has left Active. An
// append that found its window Active therefore always lands before the
// seal proceeds, and the seal-time summary is complete. Lock order is
// mu, then wmu; nothing takes mu while holding wmu.
type win[T gb.Number] struct {
	level      int
	start, end int64 // event-time bounds [start, end), unix nanoseconds
	g          *shard.Group[T]
	dir        string // durable subdirectory; "" when in-memory

	wmu     sync.RWMutex
	state   atomicState
	rolled  bool  // summed into a sealed parent window
	queries int64 // range-query cover inclusions (tests assert span locality)

	// sessHigh, stashed when the window seals (and at recovery for sealed
	// windows), is the group's merged session high-water table: per client
	// session, the highest frame seq applied into THIS window. It lets a
	// retransmission that raced a seal be recognized as a duplicate — and
	// acked — instead of refused with ErrLate. Immutable once stashed;
	// guarded by the store mutex until then (nil while active).
	sessHigh map[string]uint64
}

// Store is a temporal window store over one logical nrows x ncols matrix.
// Append is safe for concurrent use by any number of goroutines; queries
// may run concurrently with ingest, sealing, and expiry.
type Store[T gb.Number] struct {
	nrows, ncols gb.Index
	cfg          Config
	spans        []int64 // per-level window span, nanoseconds

	// mu guards the window map, watermark/frontier, counters, pending
	// seal queue, and subscriber registry. It is never held across group
	// calls (Update/Flush/Close/queries), which can block.
	mu        sync.Mutex
	wins      map[key]*win[T]
	watermark int64 // largest event timestamp seen (exclusive frontier input)
	sealedTo  int64 // level-0 windows ending at or before this are sealed
	closed    bool
	pending   []*win[T] // windows marked Sealing, in seal order

	// reached is, after Recover, the latest recovered active window's
	// start: the stream got at least that far before the restart, though
	// the manifest's watermark may trail it. Watermark reports it; sealing
	// does not follow it, because a client replaying its frames after the
	// restart must find each window open until the replay itself passes
	// the window's end, exactly as the original stream did.
	reached int64

	// err is the store's sticky error: the first seal whose group close
	// (the final checkpoint) or SEALED marker failed. That window is
	// neither marked nor published, and from then on Append, Seal, Flush
	// and Checkpoint return err, and no seal, roll-up, session-frontier
	// commit or manifest write runs: the frontier must never pass frames
	// whose durability the failed seal left unproven.
	err error

	// sealMu serializes seal execution and subscriber dispatch, so every
	// subscriber observes one summary per sealed window in global seal
	// order. Never held together with mu.
	sealMu sync.Mutex

	// sessions is the store's exactly-once session frontier (see
	// shard.Frontier): a frame is accepted when it lands in (or is
	// recognized by) a window, and the durable frontier advances only at
	// store-wide barriers (Flush, Checkpoint, Close) — a session's frames
	// spread across several windows over time, so only a barrier that syncs
	// every live window can prove a prefix durable.
	sessions shard.Frontier

	subs    map[uint64]*Subscription[T]
	nextSub uint64

	stats Stats

	// rollUpHook, when set (tests only), is called at each roll-up step:
	// "merged" after the children were added into the parent, "closed"
	// after the parent's group closed (its final checkpoint taken).
	rollUpHook func(stage string)
}

// Stats counts the store's lifecycle events.
type Stats struct {
	Active    int   // windows currently accepting appends
	Sealed    int   // sealed windows currently retained (all levels)
	Seals     int64 // windows sealed so far (all levels)
	RollUps   int64 // roll-up windows materialized
	Expired   int64 // windows removed by retention
	LateDrops int64 // entries refused with ErrLate
}

// Info describes one retained window; see Store.Windows.
type Info struct {
	Level      int
	Start, End int64
	State      State
	Rolled     bool
	Queries    int64 // range-query covers that included this window
	Entries    int   // stored cells (sealed windows only; 0 for active)
}

// New returns an empty store. With Shard.Durable.Dir set, the root
// directory is claimed (single owner, like a durable group's) and a store
// manifest is written; restore an existing root with Recover instead.
func New[T gb.Number](nrows, ncols gb.Index, cfg Config) (*Store[T], error) {
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("%w: window duration %v", gb.ErrInvalidValue, cfg.Window)
	}
	if cfg.Lateness < 0 {
		return nil, fmt.Errorf("%w: negative lateness %v", gb.ErrInvalidValue, cfg.Lateness)
	}
	spans := []int64{int64(cfg.Window)}
	for i, f := range cfg.RollUps {
		if f < 2 {
			return nil, fmt.Errorf("%w: roll-up factor %d at level %d (need >= 2)", gb.ErrInvalidValue, f, i)
		}
		spans = append(spans, spans[len(spans)-1]*int64(f))
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(nil)
	}
	s := &Store[T]{
		nrows: nrows,
		ncols: ncols,
		cfg:   cfg,
		spans: spans,
		wins:  make(map[key]*win[T]),
		subs:  make(map[uint64]*Subscription[T]),
	}
	if cfg.Shard.Durable.Dir != "" {
		if err := s.initDurable(); err != nil {
			return nil, err
		}
	}
	registerStoreFuncs(s)
	return s, nil
}

// NRows returns the row dimension.
func (s *Store[T]) NRows() gb.Index { return s.nrows }

// NCols returns the column dimension.
func (s *Store[T]) NCols() gb.Index { return s.ncols }

// Window returns the level-0 window duration.
func (s *Store[T]) Window() time.Duration { return s.cfg.Window }

// Levels returns the number of hierarchy levels (1 + len(RollUps)).
func (s *Store[T]) Levels() int { return len(s.spans) }

// Span returns the duration of one window at the given level.
func (s *Store[T]) Span(level int) time.Duration { return time.Duration(s.spans[level]) }

// Durable reports whether the store persists its windows.
func (s *Store[T]) Durable() bool { return s.cfg.Shard.Durable.Dir != "" }

// ShardsPerWindow returns the shard count each window's group runs with
// (the configured value, or the GOMAXPROCS default the shard layer would
// resolve).
func (s *Store[T]) ShardsPerWindow() int {
	if s.cfg.Shard.Shards > 0 {
		return s.cfg.Shard.Shards
	}
	return runtime.GOMAXPROCS(0)
}

// Watermark returns the largest event timestamp observed.
func (s *Store[T]) Watermark() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return max(s.watermark, s.reached)
}

// SealedTo returns the seal frontier: every level-0 window ending at or
// before it is sealed, and appends behind it fail with ErrLate.
func (s *Store[T]) SealedTo() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sealedTo
}

// alignDown floors ts to a span boundary. Timestamps are non-negative
// (Append enforces it), so integer division is the floor.
func alignDown(ts, span int64) int64 { return ts - ts%span }

// alignUp ceils ts to a span boundary.
func alignUp(ts, span int64) int64 {
	if r := ts % span; r != 0 {
		return ts - r + span
	}
	return ts
}

// groupConfig builds the shard.Config for one window's group.
func (s *Store[T]) groupConfig(dir string) shard.Config {
	cfg := s.cfg.Shard
	cfg.Durable.Dir = dir
	return cfg
}

// newWin creates (and registers) a window at the given level and start;
// shards, when positive, overrides the configured shard count. Callers
// hold mu.
func (s *Store[T]) newWin(level int, start int64, shards int) (*win[T], error) {
	dir := ""
	if s.Durable() {
		dir = s.winDir(level, start)
	}
	cfg := s.groupConfig(dir)
	if shards > 0 {
		cfg.Shards = shards
	}
	g, err := shard.NewGroup[T](s.nrows, s.ncols, cfg)
	if err != nil {
		return nil, err
	}
	w := &win[T]{
		level: level,
		start: start,
		end:   start + s.spans[level],
		g:     g,
		dir:   dir,
	}
	s.wins[key{level, start}] = w
	if level == 0 {
		s.stats.Active++
	}
	return w, nil
}

// Append routes one batch of updates, all stamped with the event timestamp
// ts (unix nanoseconds, >= 0), into the level-0 window containing ts. It
// is safe for concurrent use. Appends behind the seal frontier fail with
// ErrLate; crossing a window boundary may trigger sealing (and roll-up and
// expiry) work, which runs on the caller.
func (s *Store[T]) Append(ts int64, rows, cols []gb.Index, vals []T) error {
	_, err := s.append("", 0, ts, rows, cols, vals, nil)
	return err
}

// AppendSession is Append under the exactly-once protocol: (session, seq)
// is the frame's dedup key, exactly as in shard.Group.UpdateSession. A
// frame at or below the store's accepted frontier — or at or below a
// sealed target window's stashed high-water table — returns dup=true
// without applying anything; a fresh frame routes into its window's group
// with the key attached (journaled on durable stores) and advances the
// accepted frontier. The durable frontier, which ResumeSeq reports on
// durable stores, follows at the next Flush, Checkpoint, or Close. One
// corner stays loud by design: a frame whose original delivery was lost
// un-synced in a crash fails with ErrLate if its window's seal was
// persisted (marker or manifest frontier) before the crash — the data
// missed its window and is refused, never silently dropped. A window
// whose seal was only scheduled when the crash hit recovers Active, and
// the retransmission lands in it or is recognized as a duplicate. sp is
// the frame's sampled latency span (nil when unsampled), threaded through
// to the window group's UpdateSession so shard workers can attribute the
// frame's async stages.
func (s *Store[T]) AppendSession(session string, seq uint64, ts int64, rows, cols []gb.Index, vals []T, sp *flight.Span) (bool, error) {
	if session == "" || seq == 0 {
		return false, fmt.Errorf("%w: session %q seq %d", gb.ErrInvalidValue, session, seq)
	}
	return s.append(session, seq, ts, rows, cols, vals, sp)
}

// append is the body of Append and AppendSession. An empty session is a
// plain append: no dedup lookup and no frontier advance.
func (s *Store[T]) append(session string, seq uint64, ts int64, rows, cols []gb.Index, vals []T, sp *flight.Span) (bool, error) {
	if ts < 0 {
		return false, fmt.Errorf("%w: negative timestamp %d", gb.ErrInvalidValue, ts)
	}
	if session != "" && s.sessions.Dup(session, seq) {
		return true, nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, ErrClosed
	}
	if err := s.err; err != nil {
		s.mu.Unlock()
		return false, err
	}
	if ts > s.watermark {
		s.watermark = ts
	}
	start := alignDown(ts, s.spans[0])
	if start < s.sealedTo {
		// Behind the frontier: a retransmission of a frame the sealed
		// window already holds is a duplicate, not a late arrival.
		if w := s.wins[key{0, start}]; session != "" && w != nil && w.state.Load() == Sealed && seq <= w.sessHigh[session] {
			s.mu.Unlock()
			s.sessions.Accept(session, seq)
			return true, nil
		}
		s.stats.LateDrops += int64(len(rows))
		frontier := s.sealedTo
		s.mu.Unlock()
		return false, fmt.Errorf("%w: ts %d is before frontier %d", ErrLate, ts, frontier)
	}
	w := s.wins[key{0, start}]
	if w == nil {
		var err error
		if w, err = s.newWin(0, start, 0); err != nil {
			s.mu.Unlock()
			return false, err
		}
	}
	// The window is Active here, so no sealer holds or waits for wmu and
	// the shared lock is taken at once. Taken before any seal is
	// scheduled, it makes every seal this append schedules — its own
	// window's included — wait for the ingest below.
	w.wmu.RLock()
	sealWork := s.scheduleSealsLocked()
	s.mu.Unlock()

	// Ingest outside the store lock: Update may block on a full shard
	// queue, and the shared wmu excludes the sealer, so a seal-time
	// summary always includes every append that got past the lookup.
	var dup bool
	var err error
	switch {
	case session == "":
		err = w.g.Update(rows, cols, vals)
	default:
		// The group may still recognize the frame (its own frontier can
		// run ahead of the store's after a recovery); either way a nil
		// error means the frame is accounted for, so the store frontier
		// advances.
		dup, err = w.g.UpdateSession(session, seq, rows, cols, vals, sp)
		if err == nil {
			s.sessions.Accept(session, seq)
		}
	}
	w.wmu.RUnlock()

	if sealWork {
		s.runSeals()
	}
	return dup, err
}

// ResumeSeq reports the session's resume frontier (shard.Frontier.Resume):
// the durable frontier on durable stores, the accepted frontier otherwise.
func (s *Store[T]) ResumeSeq(session string) uint64 {
	return s.sessions.Resume(session, s.Durable())
}

// MintSeq reports the session's seq-minting floor (shard.Frontier.Mint):
// the highest frame seq the store's dedup state has ever recorded for the
// session, in any window, on any shard.
func (s *Store[T]) MintSeq(session string) uint64 { return s.sessions.Mint(session) }

// failed returns the store's sticky error.
func (s *Store[T]) failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// commitSessions publishes a pre-barrier snapshot after every live window
// synced. It commits nothing and returns the sticky error once a seal has
// failed.
func (s *Store[T]) commitSessions(snap map[string]uint64) error {
	if err := s.failed(); err != nil {
		return err
	}
	s.sessions.Commit(snap)
	return nil
}

// Seal advances the seal frontier to cover every level-0 window ending at
// or before upTo (aligned down to a window boundary), sealing them — and
// running any roll-ups and expiry that unlocks — before returning. It also
// advances the watermark to upTo, so a quiet stream can be sealed by a
// clock instead of by new data.
func (s *Store[T]) Seal(upTo int64) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if err := s.err; err != nil {
		s.mu.Unlock()
		return err
	}
	if upTo > s.watermark {
		s.watermark = upTo
	}
	target := alignDown(upTo, s.spans[0])
	sealWork := false
	if target > s.sealedTo {
		sealWork = s.scheduleSealsTo(target)
	}
	s.mu.Unlock()
	if sealWork {
		s.runSeals()
	}
	return nil
}

// scheduleSealsLocked derives the frontier from the watermark and lateness
// and queues newly-sealable windows. Callers hold mu; returns whether any
// seal work was queued (the caller then runs runSeals without mu).
func (s *Store[T]) scheduleSealsLocked() bool {
	if s.watermark < int64(s.cfg.Lateness) {
		return false // the whole stream is still within the lateness budget
	}
	target := alignDown(s.watermark-int64(s.cfg.Lateness), s.spans[0])
	if target <= s.sealedTo {
		return false
	}
	return s.scheduleSealsTo(target)
}

// scheduleSealsTo marks every active level-0 window ending at or before
// target as Sealing and queues it in start order (a map scan, NOT a walk
// over boundaries: the frontier can jump by an absolute wall-clock span,
// while live windows number at most a handful). Callers hold mu; the
// frontier must be advancing (target > s.sealedTo). Empty boundaries seal
// implicitly — there is no window to close — but the advance itself can
// still unlock roll-ups and expiry, so this always reports seal work.
func (s *Store[T]) scheduleSealsTo(target int64) bool {
	var due []*win[T]
	for _, w := range s.wins {
		if w.level == 0 && w.state.Load() == Active && w.end <= target {
			w.state.Store(Sealing)
			s.stats.Active--
			due = append(due, w)
		}
	}
	sort.Slice(due, func(a, b int) bool { return due[a].start < due[b].start })
	s.pending = append(s.pending, due...)
	s.sealedTo = target
	return true
}

// runSeals drains the pending-seal queue in order: each window is sealed
// (append barrier, group close, summary publication), then roll-ups and
// retention are applied. sealMu makes the whole sequence single-file, so
// subscribers observe seal order and roll-ups never race their children.
// The first failed seal sets the sticky error and stops all of it; the
// windows still queued stay Sealing until Close closes their groups.
func (s *Store[T]) runSeals() {
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	for {
		s.mu.Lock()
		if s.err != nil {
			s.mu.Unlock()
			return
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			break
		}
		w := s.pending[0]
		s.pending = s.pending[1:]
		s.mu.Unlock()
		if err := s.sealWin(w); err != nil {
			s.mu.Lock()
			s.err = err
			s.mu.Unlock()
			return
		}
	}
	s.rollUp()
	s.expire()
	if s.Durable() {
		s.persistMetaBestEffort()
	}
}

// sealWin seals one level-0 window: exclude in-flight appends, close the
// group (final checkpoint when durable), mark it on disk, publish its
// summary. Runs under sealMu. If the close or the marker fails, the
// window is neither marked nor published and the error is returned.
func (s *Store[T]) sealWin(w *win[T]) error {
	w.wmu.Lock()
	// State was Sealing since scheduling, and every append that found
	// the window Active took the shared lock before that: waiting here
	// lets each of them finish its ingest.
	w.wmu.Unlock()
	// Close drains every producer buffer and queue, stops the workers,
	// takes the final checkpoint when durable, and leaves the group fully
	// queryable — a sealed window costs zero goroutines.
	err := w.g.Close()
	if err == nil && w.dir != "" {
		err = s.markSealed(w)
	}
	if err != nil {
		return fmt.Errorf("window: sealing [%d,%d): %w", w.start, w.end, err)
	}
	s.publishSeal(w)
	return nil
}

// publishSeal marks a closed window Sealed — servable — and pushes its
// summary to the subscribers of its level. Runs under sealMu.
func (s *Store[T]) publishSeal(w *win[T]) {
	// Stash the window's merged session table before publishing the seal:
	// a retransmission behind the new frontier consults it to tell
	// duplicate from late. NOT committed to the store's durable frontier —
	// a session's later frames may sit un-synced in other windows, and
	// only a store-wide barrier proves a whole prefix durable.
	highs := w.g.SessionHighs()
	sum := s.summarize(w)
	s.mu.Lock()
	w.sessHigh = highs
	w.state.Store(Sealed)
	s.stats.Seals++
	s.stats.Sealed++
	lag := s.watermark - w.end
	subs := make([]*Subscription[T], 0, len(s.subs))
	for _, sub := range s.subs {
		if sub.wants(w.level) {
			subs = append(subs, sub)
		}
	}
	s.mu.Unlock()
	if lag >= 0 {
		s.cfg.Metrics.SealLag.Observe(float64(lag) / 1e9)
	}
	sealLag := time.Duration(0)
	if lag > 0 {
		sealLag = time.Duration(lag)
	}
	s.cfg.Shard.Flight.Record(flight.KindSeal, 0, "", 0, uint64(w.level), uint64(sum.Entries), sealLag)
	delivered := uint64(0)
	for _, sub := range subs {
		if sub.push(sum) {
			delivered++
		}
	}
	s.cfg.Metrics.SummariesPushed.Add(delivered)
}

// summarize computes a sealed window's published summary from the shard
// scalars: one AggregateAll barrier, run inline on the closed group.
func (s *Store[T]) summarize(w *win[T]) Summary[T] {
	sum := Summary[T]{Level: w.level, Start: w.start, End: w.end}
	agg, err := w.g.AggregateAll()
	if err != nil {
		sum.Err = err
		return sum
	}
	sum.Entries, sum.Total = agg.NVals, agg.Total
	sum.Sources, sum.Destinations = agg.Rows, agg.Cols
	return sum
}

// rollUp materializes every complete coarse window whose span the frontier
// has passed: the children (sealed level-i windows inside the span) are
// summed into a fresh level-i+1 group, which is immediately sealed and
// published like any window. Runs under sealMu; cascades upward, so a 1m
// completion can complete an hour.
func (s *Store[T]) rollUp() {
	for lvl := 0; lvl+1 < len(s.spans); lvl++ {
		span := s.spans[lvl+1]
		for {
			s.mu.Lock()
			// Find the earliest sealed, un-rolled child at this level; its
			// parent span is the roll-up candidate.
			var first *win[T]
			for _, w := range s.wins {
				if w.level == lvl && w.state.Load() == Sealed && !w.rolled {
					if first == nil || w.start < first.start {
						first = w
					}
				}
			}
			if first == nil {
				s.mu.Unlock()
				break
			}
			pstart := alignDown(first.start, span)
			pend := pstart + span
			if s.sealedTo < pend {
				s.mu.Unlock()
				break // the parent span is still open
			}
			var children []*win[T]
			for b := pstart; b < pend; b += s.spans[lvl] {
				if c := s.wins[key{lvl, b}]; c != nil && c.state.Load() == Sealed && !c.rolled {
					children = append(children, c)
				}
			}
			for _, c := range children {
				c.rolled = true
			}
			s.mu.Unlock()
			if err := s.materializeParent(lvl+1, pstart, children); err != nil {
				// Un-mark so a later seal retries the roll-up; the fine
				// windows keep answering queries either way.
				s.mu.Lock()
				for _, c := range children {
					c.rolled = false
				}
				s.mu.Unlock()
				return
			}
		}
	}
}

// materializeParent builds one roll-up window as the matrix sum of its
// children — shard.Group.AddAssign, shard by shard on the parent's workers,
// so the parent takes its children's shard count — and seals it. Runs
// under sealMu. The parent is final once its group closed (the final
// checkpoint snapshots the merged sum on a durable store) and its SEALED
// marker landed; only then is it published and servable.
func (s *Store[T]) materializeParent(level int, pstart int64, children []*win[T]) error {
	begun := wallNow()
	defer func() { s.cfg.Metrics.RollUp.Observe(wallSince(begun).Seconds()) }()
	s.mu.Lock()
	if s.wins[key{level, pstart}] != nil {
		s.mu.Unlock()
		return nil // already materialized (recovery can leave one behind)
	}
	p, err := s.newWin(level, pstart, children[len(children)-1].g.NumShards())
	s.mu.Unlock()
	if err != nil {
		return err
	}
	groups := make([]*shard.Group[T], len(children))
	for i, c := range children {
		groups[i] = c.g
	}
	err = p.g.AddAssign(groups...)
	s.hook("merged")
	if err == nil {
		err = p.g.Close()
	}
	s.hook("closed")
	if err == nil && p.dir != "" {
		err = s.markSealed(p)
	}
	if err != nil {
		// The parent must vanish entirely — deregistered, closed, durable
		// state deleted — or a later roll-up pass would see it registered,
		// assume the work done, and a cover could serve a partial sum.
		s.mu.Lock()
		delete(s.wins, key{level, pstart})
		s.mu.Unlock()
		_ = p.g.Close()
		if p.dir != "" {
			s.removeWinDir(p)
		}
		return err
	}
	s.mu.Lock()
	p.state.Store(Sealing)
	s.stats.RollUps++
	s.mu.Unlock()
	s.cfg.Shard.Flight.Record(flight.KindRollup, 0, "", 0, uint64(level), uint64(len(children)), wallSince(begun))
	s.publishSeal(p)
	return nil
}

// hook calls the test hook, if one is set, at a roll-up step.
func (s *Store[T]) hook(stage string) {
	if s.rollUpHook != nil {
		s.rollUpHook(stage)
	}
}

// expire removes sealed windows whose retention has passed. Runs under
// sealMu. Closed groups stay queryable, so a Range resolved before the
// expiry keeps working; only the map entry (and any durable state) goes.
func (s *Store[T]) expire() {
	s.mu.Lock()
	var victims []*win[T]
	for k, w := range s.wins {
		if w.state.Load() != Sealed {
			continue
		}
		r := s.retention(w.level)
		if r <= 0 {
			continue
		}
		if s.watermark-w.end >= r {
			w.state.Store(Expired)
			s.stats.Sealed--
			s.stats.Expired++
			delete(s.wins, k)
			victims = append(victims, w)
		}
	}
	s.mu.Unlock()
	for _, w := range victims {
		s.cfg.Shard.Flight.Record(flight.KindExpiry, 0, "", 0, uint64(w.level), uint64(w.start), 0)
		if w.dir != "" {
			s.removeWinDir(w)
		}
	}
}

// retention returns the configured retention for a level (0 = forever).
func (s *Store[T]) retention(level int) int64 {
	if level < len(s.cfg.Retentions) {
		return int64(s.cfg.Retentions[level])
	}
	return 0
}

// Flush drains and completes all pending ingest work in every window not
// yet sealed (a durable group-commit point, like Sharded.Flush). Sealed
// windows are already final. After a failed seal it returns the sticky
// error and commits nothing.
func (s *Store[T]) Flush() error {
	var snap map[string]uint64
	if s.Durable() {
		snap = s.sessions.Snapshot()
	}
	live, err := s.unsealed()
	if err != nil {
		return err
	}
	for _, w := range live {
		if err := w.g.Flush(); err != nil && !errors.Is(err, shard.ErrClosed) {
			return err
		}
	}
	// Every frame in the snapshot is now on disk: its portions sit either
	// in a window just fsynced, or in a window whose seal closed its group
	// first — and that final checkpoint made them durable unless the seal
	// failed.
	if err := s.commitSessions(snap); err != nil {
		return err
	}
	if s.Durable() {
		s.persistMetaBestEffort()
	}
	return nil
}

// unsealed returns the windows a store barrier must make durable:
// the active ones, and those Sealing — scheduled, with the seal that
// closes their group possibly still queued. Their frames may sit in the
// session snapshot the barrier commits, so the barrier cannot leave them
// to the seal.
func (s *Store[T]) unsealed() ([]*win[T], error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	var live []*win[T]
	for _, w := range s.wins {
		if st := w.state.Load(); st == Active || st == Sealing {
			live = append(live, w)
		}
	}
	return live, nil
}

// Checkpoint checkpoints every unsealed window's group (sealed windows took
// their final checkpoint at seal time). It fails with shard.ErrNotDurable
// on an in-memory store, and with the sticky error after a failed seal.
func (s *Store[T]) Checkpoint() error {
	if !s.Durable() {
		return shard.ErrNotDurable
	}
	snap := s.sessions.Snapshot()
	live, err := s.unsealed()
	if err != nil {
		return err
	}
	for _, w := range live {
		if err := w.g.Checkpoint(); err != nil && !errors.Is(err, shard.ErrClosed) {
			return err
		}
	}
	if err := s.commitSessions(snap); err != nil {
		return err
	}
	s.persistMetaBestEffort()
	return nil
}

// Close stops the store: active windows' groups close (final checkpoint
// when durable) WITHOUT sealing — they resume as active after Recover —
// and every subscription ends. The store stays fully queryable; Append,
// Seal, Flush, and Checkpoint fail with ErrClosed afterwards. Close is
// idempotent.
func (s *Store[T]) Close() error {
	var snap map[string]uint64
	if s.Durable() {
		snap = s.sessions.Snapshot()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var live []*win[T]
	for _, w := range s.wins {
		if w.state.Load() == Active {
			live = append(live, w)
		}
	}
	subs := make([]*Subscription[T], 0, len(s.subs))
	for _, sub := range s.subs {
		subs = append(subs, sub)
	}
	s.mu.Unlock()
	// Drain any queued seal work first so its windows close exactly once.
	// After a failed seal the queue stays put: close those groups too,
	// unmarked, so they resume as active after Recover.
	s.runSeals()
	s.mu.Lock()
	live = append(live, s.pending...)
	s.pending = nil
	s.mu.Unlock()
	var first error
	for _, w := range live {
		w.wmu.Lock()
		err := w.g.Close()
		w.wmu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	if first == nil {
		// Every live window's final checkpoint succeeded, so the whole
		// accepted frontier is on disk — unless a seal failed, in which
		// case this returns the sticky error and commits nothing.
		first = s.commitSessions(snap)
	}
	if s.Durable() {
		s.persistMetaBestEffort()
		shard.ReleaseDirLock(s.cfg.Shard.Durable.Dir)
	}
	for _, sub := range subs {
		sub.Close()
	}
	return first
}

// Stats snapshots the lifecycle counters.
func (s *Store[T]) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Windows lists every retained window (all levels), sorted by level then
// start, with its per-window query counter — the observable the span-
// locality tests assert on. Entries is filled for sealed windows only
// (counting an active window would barrier its ingest).
func (s *Store[T]) Windows() []Info {
	s.mu.Lock()
	infos := make([]Info, 0, len(s.wins))
	sealed := make([]*win[T], 0, len(s.wins))
	for _, w := range s.wins {
		infos = append(infos, Info{
			Level: w.level, Start: w.start, End: w.end,
			State: w.state.Load(), Rolled: w.rolled, Queries: w.queries,
		})
		if w.state.Load() == Sealed {
			sealed = append(sealed, w)
		}
	}
	s.mu.Unlock()
	counts := make(map[key]int, len(sealed))
	for _, w := range sealed {
		if n, err := w.g.NVals(); err == nil {
			counts[key{w.level, w.start}] = n
		}
	}
	for i := range infos {
		infos[i].Entries = counts[key{infos[i].Level, infos[i].Start}]
	}
	sortInfos(infos)
	return infos
}

func sortInfos(infos []Info) {
	sort.Slice(infos, func(a, b int) bool {
		if infos[a].Level != infos[b].Level {
			return infos[a].Level < infos[b].Level
		}
		return infos[a].Start < infos[b].Start
	})
}
