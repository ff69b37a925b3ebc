package window

import (
	"fmt"
	"sort"
	"time"

	"hhgb/internal/flight"
	"hhgb/internal/gb"
	"hhgb/internal/stats"
)

// Span is one half-open event-time interval.
type Span struct {
	Start, End int64
}

// Range is a resolved range query: the cover of windows tiling [T0, T1)
// plus the query methods over it. A Range stays valid after the store
// seals, rolls up, or expires windows — the cover pins its groups, and
// closed groups remain queryable — but it describes the store as of
// resolution time: windows sealed later do not join it retroactively.
type Range[T gb.Number] struct {
	store  *Store[T]
	T0, T1 int64 // the aligned query bounds [T0, T1)
	cover  []*win[T]
	// Uncovered lists the slices of [T0, T1) no retained window could
	// tile exactly: data expired at the requested resolution (or a coarse
	// window only partially overlapping the range). Slices that never
	// held data are NOT listed — an empty window and no window are
	// indistinguishable and both contribute nothing.
	Uncovered []Span

	// Instrumentation, set by Instrument and owned by the querying
	// goroutine (a Range is not safe for concurrent queries once
	// instrumented). Both nil on the normal path: each leg then costs
	// two nil checks and no clock reads.
	sp     *flight.Span
	ex     *flight.QueryExplain
	single bool // the in-flight query routes each leg to one shard
}

// Instrument attaches a sampled query span and/or an EXPLAIN collector to
// the range. Either may be nil. The explain trailer's cover legs and
// uncovered holes are filled here, straight from the resolved cover —
// the trailer always matches what the Range serves, bit for bit; leg
// timings and fan-out counts are filled in as the next query method
// executes. Instrument supports one query method per call (re-instrument
// to run another).
func (r *Range[T]) Instrument(sp *flight.Span, ex *flight.QueryExplain) {
	r.sp, r.ex = sp, ex
	if ex == nil {
		return
	}
	ex.Legs = make([]flight.ExplainLeg, len(r.cover))
	for i, w := range r.cover {
		ex.Legs[i] = flight.ExplainLeg{
			Level:  w.level,
			Start:  w.start,
			End:    w.end,
			Shards: w.g.NumShards(),
		}
	}
	ex.Uncovered = make([]flight.ExplainSpan, len(r.Uncovered))
	for i, s := range r.Uncovered {
		ex.Uncovered[i] = flight.ExplainSpan{Start: s.Start, End: s.End}
	}
}

// leg runs one cover window's pushdown call, timing it when the range is
// instrumented: the duration max-folds into the span's fanout_max stage
// and lands in the explain trailer's leg, and the fan-out shape (window
// level, per-shard tasks) is counted.
func (r *Range[T]) leg(i int, w *win[T], f func(w *win[T]) error) error {
	if r.sp == nil && r.ex == nil {
		return f(w)
	}
	shards := w.g.NumShards()
	if r.single {
		shards = 1
	}
	t0 := flight.Now()
	err := f(w)
	d := time.Duration(flight.Now() - t0)
	r.sp.ObserveMax(flight.QStageFanoutMax, d)
	r.sp.Touch(w.level, shards)
	r.sp.AdvanceStage(flight.QStageFanout)
	if r.ex != nil && i < len(r.ex.Legs) {
		r.ex.Legs[i].Shards = shards
		r.ex.Legs[i].Dur += d
	}
	return err
}

// QueryRange resolves the cover of [t0, t1): t0 is aligned down and t1 up
// to the level-0 window, every retained window overlapping the result is a
// candidate, and the cover greedily prefers the coarsest window fitting
// entirely inside the range — so a spans-aligned query over a rolled-up
// epoch touches one matrix, not its many children. Only cover members are
// ever queried (their per-window counters are bumped at resolution; see
// Store.Windows).
func (s *Store[T]) QueryRange(t0, t1 int64) (*Range[T], error) {
	if t0 < 0 || t1 <= t0 {
		return nil, fmt.Errorf("%w: range [%d, %d)", gb.ErrInvalidValue, t0, t1)
	}
	lo := alignDown(t0, s.spans[0])
	hi := alignUp(t1, s.spans[0])
	s.mu.Lock()
	defer s.mu.Unlock()
	// Candidates: every retained window overlapping [lo, hi), keyed by
	// start so the cover walk can pick the coarsest fit at each position.
	// Roll-up windows only qualify once Sealed: a parent registers in the
	// map before materializeParent has copied its children in, and a
	// cover that picked the half-filled parent over the complete children
	// would silently undercount. (Level-0 windows are authoritative in
	// every live state — their data arrives by ingest, not by copy.)
	starts := map[int64][]*win[T]{}
	var positions []int64
	for _, w := range s.wins {
		if w.state.Load() == Expired || w.end <= lo || w.start >= hi {
			continue
		}
		if w.level > 0 && w.state.Load() != Sealed {
			continue
		}
		if len(starts[w.start]) == 0 {
			positions = append(positions, w.start)
		}
		starts[w.start] = append(starts[w.start], w)
	}
	sort.Slice(positions, func(a, b int) bool { return positions[a] < positions[b] })

	r := &Range[T]{store: s, T0: lo, T1: hi}
	pos := lo
	for pos < hi {
		// The coarsest window starting exactly here and ending inside the
		// range; windows tile disjointly by construction (a parent's span
		// is a whole multiple of its children's), so advancing by the
		// chosen window's span can never double-count a cell.
		var best *win[T]
		for _, w := range starts[pos] {
			if w.end <= hi && (best == nil || w.end > best.end) {
				best = w
			}
		}
		if best != nil {
			best.queries++
			r.cover = append(r.cover, best)
			pos = best.end
			continue
		}
		// Nothing usable starts here: skip to the next candidate start
		// (or the end) and record the hole. Either the slice never held
		// data, or retention expired the fine windows and the surviving
		// coarse one does not fit the range — callers see which via
		// Uncovered versus an empty result.
		next := hi
		for _, p := range positions {
			if p > pos && p < next {
				next = p
			}
		}
		r.Uncovered = append(r.Uncovered, Span{Start: pos, End: next})
		pos = next
	}
	return r, nil
}

// Windows returns the number of windows in the cover — what range-query
// cost scales with.
func (r *Range[T]) Windows() int { return len(r.cover) }

// Spans lists the cover's window spans in time order.
func (r *Range[T]) Spans() []Span {
	out := make([]Span, len(r.cover))
	for i, w := range r.cover {
		out[i] = Span{Start: w.start, End: w.end}
	}
	return out
}

// each runs f over every cover window, stopping at the first error.
func (r *Range[T]) each(f func(w *win[T]) error) error {
	for i, w := range r.cover {
		if err := r.leg(i, w, f); err != nil {
			return err
		}
	}
	return nil
}

// Total returns the sum of every stored value in the range: the
// per-window (per-shard pushed-down) totals, added.
func (r *Range[T]) Total() (T, error) {
	var total T
	plus := gb.Plus[T]()
	err := r.each(func(w *win[T]) error {
		t, err := w.g.Total()
		if err != nil {
			return err
		}
		total = plus.Op(total, t)
		return nil
	})
	return total, err
}

// Lookup returns the accumulated value of one cell over the range: the
// per-window single-shard lookups, added.
func (r *Range[T]) Lookup(row, col gb.Index) (T, bool, error) {
	// A lookup routes each window's leg to exactly one shard (a
	// single-shard cut, not the all-shard barrier) — mark it so
	// instrumented legs count 1.
	r.single = true
	defer func() { r.single = false }()
	var total T
	found := false
	plus := gb.Plus[T]()
	err := r.each(func(w *win[T]) error {
		v, ok, err := w.g.Lookup(row, col)
		if err != nil {
			return err
		}
		if ok {
			total = plus.Op(total, v)
			found = true
		}
		return nil
	})
	if err != nil {
		var zero T
		return zero, false, err
	}
	return total, found, nil
}

// vec merges one pushdown vector kind across the cover.
func (r *Range[T]) vec(pick func(w *win[T]) (*gb.Vector[T], error), n gb.Index) (*gb.Vector[T], error) {
	var acc *gb.Vector[T]
	plus := gb.Plus[T]()
	err := r.each(func(w *win[T]) error {
		v, err := pick(w)
		if err != nil {
			return err
		}
		if acc == nil {
			acc = v
			return nil
		}
		acc, err = gb.VecEWiseAdd(acc, v, plus.Op)
		return err
	})
	if err != nil {
		return nil, err
	}
	if acc == nil {
		return gb.NewVector[T](n)
	}
	return acc, nil
}

// RowSums returns the per-row value totals over the range.
func (r *Range[T]) RowSums() (*gb.Vector[T], error) {
	return r.vec(func(w *win[T]) (*gb.Vector[T], error) { return w.g.RowSums() }, r.store.nrows)
}

// ColSums returns the per-column value totals over the range.
func (r *Range[T]) ColSums() (*gb.Vector[T], error) {
	return r.vec(func(w *win[T]) (*gb.Vector[T], error) { return w.g.ColSums() }, r.store.ncols)
}

// TopRows returns the k rows with the largest value totals over the range,
// ranked exactly as a flat matrix holding the range's sum would rank them.
func (r *Range[T]) TopRows(k int) ([]stats.Top[T], error) {
	v, err := r.RowSums()
	if err != nil {
		return nil, err
	}
	return stats.SelectTopK(v, k)
}

// TopCols returns the k columns with the largest value totals; see TopRows.
func (r *Range[T]) TopCols(k int) ([]stats.Top[T], error) {
	v, err := r.ColSums()
	if err != nil {
		return nil, err
	}
	return stats.SelectTopK(v, k)
}

// NVals returns the number of distinct stored cells over the range. Unlike
// sums, distinct counts are not additive across windows (a cell may recur
// in several), so this materializes the cover's sum — cost proportional to
// the cover's nnz, still bounded by the windows touched.
func (r *Range[T]) NVals() (int, error) {
	m, err := r.Materialize()
	if err != nil {
		return 0, err
	}
	return m.NVals(), nil
}

// Materialize sums the cover into one flat matrix — the reference the
// equivalence tests compare every other method against, and the escape
// hatch for analyses the pushdowns do not cover.
func (r *Range[T]) Materialize() (*gb.Matrix[T], error) {
	if len(r.cover) == 0 {
		return gb.NewMatrix[T](r.store.nrows, r.store.ncols)
	}
	parts := make([]*gb.Matrix[T], len(r.cover))
	for i, w := range r.cover {
		err := r.leg(i, w, func(w *win[T]) error {
			q, err := w.g.Query()
			if err != nil {
				return err
			}
			parts[i] = q
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return gb.Sum(parts...)
}
