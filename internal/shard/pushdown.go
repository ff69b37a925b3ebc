package shard

import (
	"fmt"

	"hhgb/internal/gb"
	"hhgb/internal/hier"
	"hhgb/internal/stats"
)

// Pushdown queries.
//
// Every query here runs its per-shard computation on the shard's own
// worker goroutine (through the run barrier, so the snapshot is
// batch-atomic and concurrent with ingest on the other shards) and merges
// the S partial results at read time; Lookup alone reads one shard, on the
// caller's goroutine when that shard is quiescent (see holdOne). Because
// the hash partition assigns each (row, col) cell to exactly one shard,
// the merges are exact:
//
//   - counts and value totals add (monoid merge),
//   - row/column vectors (sums, degrees) merge elementwise with the plus
//     monoid — a cell contributes on exactly one shard, so no entry is
//     double-counted,
//   - top-k and the Summary scalars fold that same merge without building
//     it: gb.VecFold streams the union of the partials in index order
//     into a bounded heap, or into a count and a maximum.
//
// Cost. The per-shard step runs on S workers concurrently and reads what
// the shard already holds: sums reduce level by level; degrees and the
// distinct-cell count are not linear across levels (two levels can store
// the same cell), so they read the one non-empty level in place — every
// flushed, sealed, checkpointed or recovered shard — and only a shard
// caught with several levels populated pays a Σ over its levels. The
// read-time step is O(Σ partial lengths) time; its space is O(k + S) for
// top-k, O(S) for the Summary scalars, one cell for Lookup, and the merged
// vector itself only for the callers that ask for one (RowSums, ColSums,
// RowDegrees, ColDegrees). The folds of top-k and the Summary run on every
// core once the partials hold gb.ParallelFoldMin entries between them:
// gb.AppendSplit cuts the index space into GOMAXPROCS disjoint ranges at
// the longest partial's quantiles, and each range folds on its own
// goroutine into its own heap, or count and maximum. Every index lies in
// exactly one range, with all of its pieces, so the combined answer is
// the serial fold's, ties included; below the cutoff the fold stays
// serial. The partials are immutable cache entries, so the folds run
// after the barrier and never hold ingest. The package tests verify every
// pushdown result is bit-identical to reducing the materialized flat
// matrix.

// shardCache memoizes one shard's pushdown reductions between ingest
// batches. It is owned by the worker goroutine (queries run there, and
// the ingest loop clears it whenever a batch lands — see worker.loop), so
// repeated analytics on a quiescent stream cost only the read-time merge:
// every per-shard scalar, vector, and degree reduction is served from
// here. A closed group's cache holds the scalars alone (see partials).
// Cached vectors come out of the gb reductions fully materialized
// (nothing stages into them) and are treated as immutable afterwards, so
// handing the same *gb.Vector to several concurrent merges is safe.
type shardCache[T gb.Number] struct {
	nvals *int
	total *T
	vecs  [4]*gb.Vector[T] // indexed by vectorKind
}

// hit/miss bump the worker-owned counters (exposed via CacheStats) and
// mirror them into the registry-level shard metrics (one atomic add).
func (w *worker[T]) hit() {
	w.cacheHits++
	w.met.CacheHits.Inc()
}

func (w *worker[T]) miss() {
	w.cacheMisses++
	w.met.CacheMisses.Inc()
}

// CacheCounters aggregates the per-shard pushdown-cache counters: one hit
// or miss is counted per shard per cached quantity a query touches, and
// one invalidation per ingest batch that cleared a non-empty cache.
type CacheCounters struct {
	Hits          int64
	Misses        int64
	Invalidations int64
}

// CacheStats sums the per-shard pushdown cache counters (a barrier, like
// every query).
func (g *Group[T]) CacheStats() CacheCounters {
	counts := make([]CacheCounters, len(g.workers))
	_ = g.run(func(i int, w *worker[T]) {
		counts[i] = CacheCounters{
			Hits:          w.cacheHits,
			Misses:        w.cacheMisses,
			Invalidations: w.cacheInvals,
		}
	})
	var out CacheCounters
	for _, c := range counts {
		out.Hits += c.Hits
		out.Misses += c.Misses
		out.Invalidations += c.Invalidations
	}
	return out
}

// NVals returns the number of distinct stored entries in the logical
// matrix: the per-shard counts, summed.
func (g *Group[T]) NVals() (int, error) {
	ns := make([]int, len(g.workers))
	errs := make([]error, len(g.workers))
	if err := g.run(func(i int, w *worker[T]) {
		if w.err != nil {
			errs[i] = w.err
			return
		}
		if w.cache.nvals != nil {
			w.hit()
			ns[i] = *w.cache.nvals
			return
		}
		w.miss()
		q, err := sigma(w.m)
		if err != nil {
			errs[i] = err
			return
		}
		n := q.NVals()
		ns[i], w.cache.nvals = n, &n
	}); err != nil {
		return 0, err
	}
	if err := firstError(errs); err != nil {
		return 0, err
	}
	total := 0
	for _, n := range ns {
		total += n
	}
	return total, nil
}

// Total returns the sum of every stored value. It is fully incremental:
// each worker reduces its levels directly (value sums are linear, so no
// shard ever materializes its Σ) and the S partial sums add.
func (g *Group[T]) Total() (T, error) {
	parts := make([]T, len(g.workers))
	errs := make([]error, len(g.workers))
	plus := gb.Plus[T]()
	if err := g.run(func(i int, w *worker[T]) {
		if w.err != nil {
			errs[i] = w.err
			return
		}
		if w.cache.total != nil {
			w.hit()
			parts[i] = *w.cache.total
			return
		}
		w.miss()
		var acc T
		for l := 0; l < w.m.NumLevels(); l++ {
			s, err := gb.ReduceScalar(w.m.Level(l), plus)
			if err != nil {
				errs[i] = err
				return
			}
			acc = plus.Op(acc, s)
		}
		parts[i] = acc
		w.cache.total = &acc
	}); err != nil {
		var zero T
		return zero, err
	}
	var total T
	if err := firstError(errs); err != nil {
		return total, err
	}
	for _, p := range parts {
		total = plus.Op(total, p)
	}
	return total, nil
}

// Lookup returns the accumulated value of one cell and whether any traffic
// was recorded for it. The cell lives on exactly one shard, so only that
// shard is drained and read — O(levels x log shard-nnz), with no
// materialization anywhere and latency independent of the other shards'
// queue depth. A quiescent shard is read on the caller's goroutine,
// without allocating; a shard with work queued is read by its worker
// behind a barrier.
func (g *Group[T]) Lookup(row, col gb.Index) (T, bool, error) {
	var zero T
	if row >= g.nrows || col >= g.ncols {
		return zero, false, fmt.Errorf("%w: (%d,%d) outside %d x %d", gb.ErrIndexOutOfBounds, row, col, g.nrows, g.ncols)
	}
	sh := g.shardOf(row, col)
	if w := g.holdOne(sh); w != nil {
		v, ok, err := w.lookup(row, col)
		w.mu.Unlock()
		return v, ok, shardErr(sh, err)
	}
	// Declared past the inline return: the barrier closure captures them,
	// which moves them to the heap.
	var (
		v   T
		ok  bool
		err error
	)
	if rerr := g.runOne(sh, func(w *worker[T]) { v, ok, err = w.lookup(row, col) }); rerr != nil {
		return zero, false, rerr
	}
	return v, ok, shardErr(sh, err)
}

// lookup reads one cell of the shard's cascade; zero and false on error.
func (w *worker[T]) lookup(row, col gb.Index) (T, bool, error) {
	var zero T
	if w.err != nil {
		return zero, false, w.err
	}
	v, ok, err := w.m.ExtractElement(row, col)
	if err != nil {
		return zero, false, err
	}
	return v, ok, nil
}

// shardErr attributes a shard-local error to its shard; nil stays nil.
func shardErr(sh int, err error) error {
	if err != nil {
		return fmt.Errorf("shard %d: %w", sh, err)
	}
	return nil
}

// sigma returns, for reading only, a matrix holding the shard's Σ: the one
// non-empty level itself when no other level holds anything — hier.Flush
// promotes everything into the top, so that is every flushed, sealed,
// checkpointed or recovered shard — and the materialized sum of the levels
// otherwise.
func sigma[T gb.Number](m *hier.Matrix[T]) (*gb.Matrix[T], error) {
	only := m.Level(m.NumLevels() - 1)
	held := 0
	for l := 0; l < m.NumLevels(); l++ {
		if lvl := m.Level(l); lvl.NVals() != 0 {
			only = lvl
			held++
		}
	}
	if held > 1 {
		return m.Query()
	}
	return only, nil
}

// mergeVecs folds per-shard partial vectors elementwise with add. Nil
// partials (shards that computed nothing) are skipped; the merge of all-nil
// returns an empty vector of the given length.
func mergeVecs[T gb.Number](parts []*gb.Vector[T], n gb.Index, add gb.BinaryOp[T]) (*gb.Vector[T], error) {
	var acc *gb.Vector[T]
	for _, p := range parts {
		if p == nil {
			continue
		}
		if acc == nil {
			acc = p
			continue
		}
		var err error
		acc, err = gb.VecEWiseAdd(acc, p, add)
		if err != nil {
			return nil, err
		}
	}
	if acc == nil {
		return gb.NewVector[T](n)
	}
	return acc, nil
}

// vectorKind selects which per-shard vector a pushdown query computes.
type vectorKind int

const (
	rowSums vectorKind = iota
	colSums
	rowDegrees
	colDegrees
)

// size is the index space a kind's vectors live in.
func (g *Group[T]) size(kind vectorKind) gb.Index {
	if kind == colSums || kind == colDegrees {
		return g.ncols
	}
	return g.nrows
}

// shardVector computes one shard's partial vector on the worker goroutine.
// Sums are linear, so they reduce level by level with no materialization;
// degrees count distinct cells, so they read the shard's Σ (see sigma) —
// from its structure alone.
func shardVector[T gb.Number](m *hier.Matrix[T], kind vectorKind, n gb.Index) (*gb.Vector[T], error) {
	plus := gb.Plus[T]()
	switch kind {
	case rowSums, colSums:
		var acc *gb.Vector[T]
		for l := 0; l < m.NumLevels(); l++ {
			lvl := m.Level(l)
			var v *gb.Vector[T]
			var err error
			if kind == rowSums {
				v, err = gb.ReduceRows(lvl, plus)
			} else {
				v, err = gb.ReduceCols(lvl, plus)
			}
			if err != nil {
				return nil, err
			}
			if acc == nil {
				acc = v
				continue
			}
			acc, err = gb.VecEWiseAdd(acc, v, plus.Op)
			if err != nil {
				return nil, err
			}
		}
		if acc == nil {
			return gb.NewVector[T](n)
		}
		return acc, nil
	default:
		q, err := sigma(m)
		if err != nil {
			return nil, err
		}
		return degrees(q, kind)
	}
}

// degrees is the row or column degree vector of one matrix.
func degrees[T gb.Number](q *gb.Matrix[T], kind vectorKind) (*gb.Vector[T], error) {
	if kind == rowDegrees {
		return gb.RowDegrees(q)
	}
	return gb.ColDegrees(q)
}

// partials runs the per-shard half of one pushdown vector query: each
// worker's partial of the kind, from its cache or computed and cached. The
// partials are the cache entries themselves — read, never written. A closed
// group computes its vectors per call and caches only scalars: its readers
// (a ranged query over sealed windows) come a few times and never again,
// and a vector cached on every sealed window would outweigh its entries.
func (g *Group[T]) partials(kind vectorKind) ([]*gb.Vector[T], error) {
	parts := make([]*gb.Vector[T], len(g.workers))
	errs := make([]error, len(g.workers))
	if err := g.run(func(i int, w *worker[T]) {
		if w.err != nil {
			errs[i] = w.err
			return
		}
		if v := w.cache.vecs[kind]; v != nil {
			w.hit()
			parts[i] = v
			return
		}
		w.miss()
		parts[i], errs[i] = shardVector[T](w.m, kind, g.size(kind))
		if errs[i] == nil && !w.closed {
			w.cache.vecs[kind] = parts[i]
		}
	}); err != nil {
		return nil, err
	}
	return parts, firstError(errs)
}

// vector runs one pushdown vector query for a caller that wants the
// vector: the per-shard partials, merged with the plus monoid at read time.
func (g *Group[T]) vector(kind vectorKind) (*gb.Vector[T], error) {
	parts, err := g.partials(kind)
	if err != nil {
		return nil, err
	}
	v, err := mergeVecs(parts, g.size(kind), gb.Plus[T]().Op)
	if err != nil {
		return nil, err
	}
	if len(g.workers) == 1 {
		// A single-shard merge returns the shard's partial itself, which
		// is the cached vector; hand the caller a copy so the cache entry
		// stays immutable.
		v = v.Dup()
	}
	return v, nil
}

// RowSums returns the per-row value totals (out-traffic for a traffic
// matrix), one entry per non-empty row.
func (g *Group[T]) RowSums() (*gb.Vector[T], error) { return g.vector(rowSums) }

// ColSums returns the per-column value totals (in-traffic), one entry per
// non-empty column.
func (g *Group[T]) ColSums() (*gb.Vector[T], error) { return g.vector(colSums) }

// RowDegrees returns, per non-empty row, the number of distinct stored
// cells in it (out-degree: destination fan-out).
func (g *Group[T]) RowDegrees() (*gb.Vector[T], error) { return g.vector(rowDegrees) }

// ColDegrees returns, per non-empty column, the number of distinct stored
// cells in it (in-degree: source fan-in).
func (g *Group[T]) ColDegrees() (*gb.Vector[T], error) { return g.vector(colDegrees) }

// topK ranks one kind's merged vector without building it: the cached
// per-shard partials stream through the union merge into a bounded heap.
// Exact, because an index's value is the plus-fold over every shard that
// holds a piece of it — per-shard top-k candidates alone would not be.
func (g *Group[T]) topK(kind vectorKind, k int) ([]stats.Top[T], error) {
	parts, err := g.partials(kind)
	if err != nil {
		return nil, err
	}
	return stats.FoldTopK(parts, k)
}

// TopRows returns the k rows with the largest value totals, in descending
// order with ties broken by lower index — exactly the flat path's answer.
// The per-shard sums are pushed down to the workers (and cached there); the
// read-time step is a streaming merge into k-entry heaps, one per index
// range and core.
func (g *Group[T]) TopRows(k int) ([]stats.Top[T], error) { return g.topK(rowSums, k) }

// TopCols returns the k columns with the largest value totals; see TopRows.
func (g *Group[T]) TopCols(k int) ([]stats.Top[T], error) { return g.topK(colSums, k) }

// Aggregates is a batch-atomic snapshot of the standard summary scalars,
// taken in ONE barrier so all fields describe the same instant of the
// stream (chaining the individual queries would let ingest slip between
// them).
type Aggregates[T gb.Number] struct {
	NVals        int // distinct stored cells
	Total        T   // sum of all values
	Rows         int // distinct non-empty rows
	Cols         int // distinct non-empty columns
	MaxRowDegree T   // most distinct cells in one row
	MaxColDegree T   // most distinct cells in one column
}

// AggregateAll computes the summary scalars in a single barrier: each
// worker reads its Σ once (see sigma) for its cell count, value total and
// two degree partials, all cached (the partials only while the group is
// live, as in partials); the degree partials are then folded across shards
// into a count and a maximum each — no merged vector is built.
func (g *Group[T]) AggregateAll() (Aggregates[T], error) {
	plus := gb.Plus[T]()
	nvals := make([]int, len(g.workers))
	totals := make([]T, len(g.workers))
	rowD := make([]*gb.Vector[T], len(g.workers))
	colD := make([]*gb.Vector[T], len(g.workers))
	errs := make([]error, len(g.workers))
	if err := g.run(func(i int, w *worker[T]) {
		if w.err != nil {
			errs[i] = w.err
			return
		}
		c := &w.cache
		if c.nvals != nil && c.total != nil && c.vecs[rowDegrees] != nil && c.vecs[colDegrees] != nil {
			w.hit()
		} else {
			w.miss()
			if errs[i] = w.fillAggregates(); errs[i] != nil {
				return
			}
		}
		nvals[i], totals[i] = *c.nvals, *c.total
		rowD[i], colD[i] = c.vecs[rowDegrees], c.vecs[colDegrees]
		if w.closed {
			c.vecs = [4]*gb.Vector[T]{} // scalars only, as in partials
		}
	}); err != nil {
		return Aggregates[T]{}, err
	}
	if err := firstError(errs); err != nil {
		return Aggregates[T]{}, err
	}
	var agg Aggregates[T]
	for i := range nvals {
		agg.NVals += nvals[i]
		agg.Total = plus.Op(agg.Total, totals[i])
	}
	counts, most := foldDegrees(rowD, colD)
	agg.Rows, agg.MaxRowDegree = counts[0], most[0]
	agg.Cols, agg.MaxColDegree = counts[1], most[1]
	return agg, nil
}

// fillAggregates computes the four cached quantities AggregateAll reads
// from one pass over the shard's Σ.
func (w *worker[T]) fillAggregates() error {
	q, err := sigma(w.m)
	if err != nil {
		return err
	}
	n := q.NVals()
	total, err := gb.ReduceScalar(q, gb.Plus[T]())
	if err != nil {
		return err
	}
	for _, kind := range []vectorKind{rowDegrees, colDegrees} {
		if w.cache.vecs[kind] != nil {
			continue
		}
		if w.cache.vecs[kind], err = degrees(q, kind); err != nil {
			return err
		}
	}
	w.cache.nvals, w.cache.total = &n, &total
	return nil
}

// foldDegrees folds the row and the column degree partials, each into
// the count and the maximum of its merged vector, without building either.
// Partials holding gb.ParallelFoldMin entries or more are folded on every
// core, one index range each (see countAndMaxRanges).
func foldDegrees[T gb.Number](rowD, colD []*gb.Vector[T]) (counts [2]int, most [2]T) {
	n := max(gb.FoldRanges(rowD), gb.FoldRanges(colD))
	if n == 1 {
		counts[0], most[0] = countAndMaxRange(rowD, 0, ^gb.Index(0))
		counts[1], most[1] = countAndMaxRange(colD, 0, ^gb.Index(0))
		return counts, most
	}
	rowB := gb.AppendSplit(make([]gb.Index, 0, 2*n+2), rowD, n)
	colB := gb.AppendSplit(rowB, colD, n)[len(rowB):]
	return countAndMaxRanges([2][]*gb.Vector[T]{rowD, colD}, [2][]gb.Index{rowB, colB})
}

// countAndMaxRange folds the merged vector of the partials, over the
// indices in [lo, hi): how many indices it has and its largest value.
func countAndMaxRange[T gb.Number](parts []*gb.Vector[T], lo, hi gb.Index) (n int, most T) {
	gb.VecFoldRange(parts, lo, hi, gb.Plus[T]().Op, func(_ gb.Index, x T) {
		n++
		if x > most {
			most = x
		}
	})
	return n, most
}

// countAndMaxRanges folds each of the two partial sets over its own index
// ranges (range r of set s is [bounds[s][r], bounds[s][r+1])), every range
// of both concurrently. Each index lies in exactly one range of its set, so
// the counts add and the maxima combine to exactly the serial answer.
func countAndMaxRanges[T gb.Number](sets [2][]*gb.Vector[T], bounds [2][]gb.Index) (counts [2]int, most [2]T) {
	type result struct {
		n    int
		most T
	}
	rows := len(bounds[0]) - 1
	res := make([]result, rows+len(bounds[1])-1)
	gb.ParallelFor(len(res), func(r int) {
		s, i := 0, r
		if r >= rows {
			s, i = 1, r-rows
		}
		res[r].n, res[r].most = countAndMaxRange(sets[s], bounds[s][i], bounds[s][i+1])
	})
	for r, x := range res {
		s := 0
		if r >= rows {
			s = 1
		}
		counts[s] += x.n
		if x.most > most[s] {
			most[s] = x.most
		}
	}
	return counts, most
}
