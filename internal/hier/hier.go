// Package hier implements hierarchical hypersparse matrices — the core
// contribution of Kepner et al., "75,000,000,000 Streaming Inserts/Second
// Using Hierarchical Hypersparse GraphBLAS Matrices" (IPDPS Workshops 2020).
//
// A hierarchical matrix is a cascade of N hypersparse matrices A1 … AN with
// nonzero cuts c1 … c(N-1). Streaming updates are added into A1, the
// smallest matrix, which lives in the fastest memory. Whenever
// nnz(Ai) > ci, the level is promoted — A(i+1) += Ai; Ai is cleared — and
// the rule re-applies upward. Queries materialize A = Σ Ai.
//
// Because GraphBLAS addition is linear and handles all hypersparse index
// bookkeeping, the cascade is *exactly* equivalent to accumulating every
// update into a single flat matrix (a property the tests verify for random
// cut vectors), while performing the vast majority of update work inside
// small, cache-resident structures.
package hier

import (
	"fmt"
	"math"

	"hhgb/internal/gb"
)

// Config describes the shape of a hierarchical matrix.
type Config struct {
	// Cuts holds the nonzero thresholds c1 … c(N-1) for the non-top
	// levels; level i cascades into level i+1 when nnz exceeds Cuts[i].
	// The number of levels is len(Cuts)+1; the top level is unbounded.
	Cuts []int
}

// DefaultLevels is the cascade depth used when no configuration is given.
// Four levels with a geometric cut progression is the configuration family
// the paper describes as "easily tunable".
const DefaultLevels = 4

// DefaultBaseCut is the default c1: small enough that level 1 stays inside
// L2-cache-sized working sets on commodity hardware.
const DefaultBaseCut = 1 << 14

// DefaultCutRatio is the default geometric growth between cuts.
const DefaultCutRatio = 16

// GeometricCuts returns cuts c_i = base * ratio^(i-1) for a cascade with
// the given number of levels (levels-1 cuts). It is the tuning family from
// the paper's Section II. A cut past math.MaxInt is math.MaxInt: a level
// that never promotes.
func GeometricCuts(levels, base, ratio int) []int {
	if levels < 1 {
		return nil
	}
	cuts := make([]int, levels-1)
	c := base
	for i := range cuts {
		cuts[i] = c
		if c > 0 && ratio > 0 && c > math.MaxInt/ratio {
			c = math.MaxInt
		} else {
			c *= ratio
		}
	}
	return cuts
}

// DefaultConfig returns the default 4-level geometric configuration.
func DefaultConfig() Config {
	return Config{Cuts: GeometricCuts(DefaultLevels, DefaultBaseCut, DefaultCutRatio)}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	for i, cut := range c.Cuts {
		if cut < 1 {
			return fmt.Errorf("%w: cut %d is %d; cuts must be >= 1", gb.ErrInvalidValue, i, cut)
		}
	}
	return nil
}

// Levels returns the cascade depth implied by the configuration.
func (c Config) Levels() int { return len(c.Cuts) + 1 }

// Stats counts the work a hierarchical matrix has performed. All counters
// are cumulative since construction.
type Stats struct {
	// Updates is the number of individual entry updates ingested.
	Updates int64
	// Batches is the number of Update/UpdateMatrix calls.
	Batches int64
	// Cascades[i] counts promotions of level i into level i+1.
	Cascades []int64
	// CascadedEntries[i] counts entries moved by those promotions; the
	// ratio CascadedEntries[i]/Updates is the fraction of traffic that
	// reached level i+1 — the "memory pressure" the hierarchy removes.
	CascadedEntries []int64
	// Queries counts Query/Flush materializations.
	Queries int64
}

// Matrix is an N-level hierarchical hypersparse matrix of T values.
// It is not safe for concurrent use; shard.Group gives each shard its own
// Matrix, owned by one goroutine, for parallel ingest.
type Matrix[T gb.Number] struct {
	nrows, ncols gb.Index
	cuts         []int
	levels       []*gb.Matrix[T]
	plus         gb.BinaryOp[T]
	stats        Stats
}

// New returns an empty hierarchical matrix with the given dimensions and
// configuration. A Config with nil Cuts yields a single flat level (N=1),
// which degenerates to an ordinary hypersparse matrix.
func New[T gb.Number](nrows, ncols gb.Index, cfg Config) (*Matrix[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Levels()
	h := &Matrix[T]{
		nrows: nrows,
		ncols: ncols,
		cuts:  append([]int(nil), cfg.Cuts...),
		plus:  gb.Plus[T]().Op,
		stats: Stats{Cascades: make([]int64, n), CascadedEntries: make([]int64, n)},
	}
	for i := 0; i < n; i++ {
		m, err := gb.NewMatrix[T](nrows, ncols)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, m)
	}
	return h, nil
}

// MustNew is New that panics on error; for tests and examples.
func MustNew[T gb.Number](nrows, ncols gb.Index, cfg Config) *Matrix[T] {
	h, err := New[T](nrows, ncols, cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// NRows returns the row dimension.
func (h *Matrix[T]) NRows() gb.Index { return h.nrows }

// NCols returns the column dimension.
func (h *Matrix[T]) NCols() gb.Index { return h.ncols }

// NumLevels returns the cascade depth N.
func (h *Matrix[T]) NumLevels() int { return len(h.levels) }

// Update ingests a batch of streaming updates: A1 += A where A is the
// hypersparse matrix assembled from the tuples, then cascades any level
// whose nonzero count exceeds its cut. This is the paper's Section II
// update procedure, and the operation whose rate Fig. 2 measures.
func (h *Matrix[T]) Update(rows, cols []gb.Index, vals []T) error {
	if err := h.levels[0].AppendTuples(rows, cols, vals); err != nil {
		return err
	}
	h.stats.Updates += int64(len(rows))
	h.stats.Batches++
	return h.cascade()
}

// UpdateMatrix ingests an already-assembled hypersparse matrix: A1 += a.
func (h *Matrix[T]) UpdateMatrix(a *gb.Matrix[T]) error {
	if a.NRows() != h.nrows || a.NCols() != h.ncols {
		return fmt.Errorf("%w: update %dx%d into %dx%d", gb.ErrDimensionMismatch, a.NRows(), a.NCols(), h.nrows, h.ncols)
	}
	h.stats.Updates += int64(a.NVals())
	h.stats.Batches++
	if err := gb.AddAssign(h.levels[0], a, h.plus); err != nil {
		return err
	}
	return h.cascade()
}

// cascade applies the promotion rule bottom-up: while nnz(Ai) > ci,
// A(i+1) += Ai and Ai is emptied — one gb.Promote, merged in A(i+1)'s own
// arrays, with Ai keeping its buffers for the next fill, so a warm cascade
// allocates only when the unbounded top level grows. The pending-length
// upper bound avoids materializing level 1 when it cannot possibly have
// crossed its cut.
func (h *Matrix[T]) cascade() error {
	for i := 0; i < len(h.cuts); i++ {
		lvl := h.levels[i]
		// Cheap upper bound first: if even pending+stored can't exceed
		// the cut, the level certainly doesn't cascade and we avoid the
		// sort/merge entirely.
		if lvl.MaterializedNVals()+lvl.PendingLen() <= h.cuts[i] {
			return nil
		}
		nnz := lvl.NVals() // forces Wait; exact count after dedup
		if nnz <= h.cuts[i] {
			return nil
		}
		if err := gb.Promote(h.levels[i+1], lvl, h.plus); err != nil {
			return err
		}
		h.stats.Cascades[i]++
		h.stats.CascadedEntries[i] += int64(nnz)
	}
	return nil
}

// Query materializes A = Σ Ai without disturbing the cascade state.
// The paper's analysis step: all pending updates become visible.
func (h *Matrix[T]) Query() (*gb.Matrix[T], error) {
	h.stats.Queries++
	return gb.Sum(h.levels...)
}

// Materialize completes every level's pending work without summing them,
// making the hierarchy scannable with zero staleness. For a cascade this
// costs at most O(c1 + batch) — only the lowest level ever holds pending
// updates — whereas a flat (single-level) matrix pays a full O(nnz) merge;
// that asymmetry is the paper's mechanism in one method.
func (h *Matrix[T]) Materialize() {
	for _, lvl := range h.levels {
		lvl.Wait()
	}
}

// Flush completes all pending work by cascading every level into the top
// and returns the resulting total matrix. After Flush, all levels below the
// top are empty and the top holds Σ Ai. The returned matrix is the live top
// level (not a copy): callers that need isolation should Dup it. Level 1
// keeps its buffers — a mid-stream Flush is followed by more ingest — and
// the top its growth slack; Trim is what lets those go.
func (h *Matrix[T]) Flush() (*gb.Matrix[T], error) {
	h.stats.Queries++
	top := h.levels[len(h.levels)-1]
	// Largest level first: an empty top takes its arrays whole (gb.Promote
	// hands them over), and the small levels then merge into its slack.
	for i := len(h.levels) - 2; i >= 0; i-- {
		lvl := h.levels[i]
		nnz := lvl.NVals()
		if nnz == 0 {
			continue
		}
		if err := gb.Promote(top, lvl, h.plus); err != nil {
			return nil, err
		}
		h.stats.Cascades[i]++
		h.stats.CascadedEntries[i] += int64(nnz)
	}
	top.Wait()
	// A flushed matrix may sit idle for as long as it likes, and what it
	// holds then doubles in the collector's heap target. Level 1 takes the
	// very next batch and keeps everything; the levels between refill only
	// after many level-1 promotions and hold cut-sized arrays, so they
	// hand them back and regrow if the stream goes on.
	for i := 1; i < len(h.levels)-1; i++ {
		h.levels[i].Trim()
	}
	return top, nil
}

// ExtractElement returns the accumulated value at (i, j), summed across
// levels, and whether any level stores the cell. Because a cell can live at
// several levels at once (recent traffic in A1, cascaded history above),
// the per-level values are combined with the accumulation operator — by
// linearity this equals the value a full Query would materialize, at
// O(levels x log nnz) cost instead of O(nnz).
func (h *Matrix[T]) ExtractElement(i, j gb.Index) (T, bool, error) {
	var total T
	if i >= h.nrows || j >= h.ncols {
		return total, false, fmt.Errorf("%w: (%d,%d) outside %d x %d", gb.ErrIndexOutOfBounds, i, j, h.nrows, h.ncols)
	}
	found := false
	for _, lvl := range h.levels {
		v, err := lvl.ExtractElement(i, j)
		if err != nil {
			if err == gb.ErrNoValue {
				continue
			}
			return total, false, err
		}
		if !found {
			total, found = v, true
			continue
		}
		total = h.plus(total, v)
	}
	return total, found, nil
}

// NVals returns the exact number of distinct stored entries across the
// hierarchy. It requires a full Query (entries may be split across levels),
// so it is an analysis-time operation, not an ingest-time one.
func (h *Matrix[T]) NVals() (int, error) {
	q, err := h.Query()
	if err != nil {
		return 0, err
	}
	return q.NVals(), nil
}

// LevelNVals reports the per-level nonzero counts (materializing pending
// updates level by level). Useful for inspecting cascade behaviour.
func (h *Matrix[T]) LevelNVals() []int {
	out := make([]int, len(h.levels))
	for i, lvl := range h.levels {
		out[i] = lvl.NVals()
	}
	return out
}

// Level returns the i-th level matrix for read-only inspection.
// Mutating it breaks the cascade invariants.
func (h *Matrix[T]) Level(i int) *gb.Matrix[T] { return h.levels[i] }

// Stats returns a copy of the cumulative counters.
func (h *Matrix[T]) Stats() Stats {
	s := h.stats
	s.Cascades = append([]int64(nil), h.stats.Cascades...)
	s.CascadedEntries = append([]int64(nil), h.stats.CascadedEntries...)
	return s
}

// Trim completes pending work and releases every buffer only further
// ingest would use: an empty level ends up holding nothing, a non-empty one
// at most 1/8 beyond its entries (see gb.Matrix.Trim). Called after Flush —
// as shard.Group.Close does — that is every non-top level released and the
// top level's growth slack returned; the matrix stays fully usable.
func (h *Matrix[T]) Trim() {
	for _, lvl := range h.levels {
		lvl.Trim()
	}
}

// LevelCaps reports each level's gb.Matrix.Capacity: the entries of DCSR
// room it holds and the entries of pending/sort staging.
func (h *Matrix[T]) LevelCaps() (stored, staging []int) {
	stored, staging = make([]int, len(h.levels)), make([]int, len(h.levels))
	for i, lvl := range h.levels {
		stored[i], staging[i] = lvl.Capacity()
	}
	return stored, staging
}

// Clear empties every level, keeping configuration and dimensions, and
// releases their storage.
func (h *Matrix[T]) Clear() {
	for _, lvl := range h.levels {
		lvl.Clear()
	}
}

// String summarizes the hierarchy without materializing a query.
func (h *Matrix[T]) String() string {
	return fmt.Sprintf("hier.Matrix[%dx%d, levels=%d, cuts=%v]", h.nrows, h.ncols, len(h.levels), h.cuts)
}
