// Package stats computes the network statistics the paper's Section III
// says a real analysis application would run on each stream: degree and
// traffic vectors, supernode top-k and summaries — all expressed over the
// GraphBLAS kernels so they inherit the hypersparse cost model.
package stats

import (
	"fmt"
	"slices"

	"hhgb/internal/gb"
)

// Entry is one ranked (index, value) result.
type Entry struct {
	Index gb.Index
	Value uint64
}

// OutDegrees returns, per source with traffic, the number of distinct
// destinations (pattern degree, not packet count).
func OutDegrees(m *gb.Matrix[uint64]) (*gb.Vector[uint64], error) {
	return gb.RowDegrees(m)
}

// InDegrees returns, per destination, the number of distinct sources.
func InDegrees(m *gb.Matrix[uint64]) (*gb.Vector[uint64], error) {
	return gb.ColDegrees(m)
}

// OutTraffic returns per-source packet totals (row sums).
func OutTraffic(m *gb.Matrix[uint64]) (*gb.Vector[uint64], error) {
	return gb.ReduceRows(m, gb.Plus[uint64]())
}

// InTraffic returns per-destination packet totals (column sums).
func InTraffic(m *gb.Matrix[uint64]) (*gb.Vector[uint64], error) {
	return gb.ReduceCols(m, gb.Plus[uint64]())
}

// TopK returns the k largest entries of v, ties broken by lower index
// first, ordered descending by value. k larger than the entry count
// returns everything.
func TopK(v *gb.Vector[uint64], k int) ([]Entry, error) {
	top, err := SelectTopK(v, k)
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, len(top))
	for i, e := range top {
		entries[i] = Entry{Index: e.Index, Value: e.Value}
	}
	return entries, nil
}

// Top is one ranked entry of a top-k selection.
type Top[T gb.Number] struct {
	Index gb.Index
	Value T
}

// topLess is the selection order: an entry ranks higher when its value is
// larger, ties broken by lower index. The order is total (indices are
// distinct), so bounded-heap selection returns exactly the entries a full
// sort would.
func topLess[T gb.Number](a, b Top[T]) bool {
	if a.Value != b.Value {
		return a.Value > b.Value
	}
	return a.Index < b.Index
}

// topHeap keeps the k best of the entries offered to it, in topLess order,
// in O(log k) per kept entry and O(k) space. The weakest kept entry sits at
// the root: it is the one a stronger newcomer evicts.
type topHeap[T gb.Number] struct {
	k    int
	heap []Top[T]
}

// newTopHeap returns a heap selecting the best k (>= 0) of at most n
// offers. Room is min(k, n): k arrives off the wire, and the heap never
// holds more than it is offered.
func newTopHeap[T gb.Number](k, n int) topHeap[T] {
	return topHeap[T]{k: k, heap: make([]Top[T], 0, min(k, n))}
}

// offer considers one entry; indices offered to one heap must be distinct.
// An entry no better than the root of a full heap is rejected before any
// sift.
//
//hhgb:noalloc
func (h *topHeap[T]) offer(i gb.Index, x T) {
	e := Top[T]{Index: i, Value: x}
	heap := h.heap
	if len(heap) < h.k {
		heap = append(heap, e)
		h.heap = heap
		for c := len(heap) - 1; c > 0; {
			p := (c - 1) / 2
			if !topLess(heap[p], heap[c]) {
				break
			}
			heap[c], heap[p] = heap[p], heap[c]
			c = p
		}
		return
	}
	if h.k == 0 || !topLess(e, heap[0]) {
		return
	}
	heap[0] = e
	for p := 0; ; {
		w := p
		if l := 2*p + 1; l < len(heap) && topLess(heap[w], heap[l]) {
			w = l
		}
		if r := 2*p + 2; r < len(heap) && topLess(heap[w], heap[r]) {
			w = r
		}
		if w == p {
			return
		}
		heap[p], heap[w] = heap[w], heap[p]
		p = w
	}
}

// sorted orders the kept entries best first and returns them; the heap
// must not be offered to afterwards.
func (h *topHeap[T]) sorted() []Top[T] {
	slices.SortFunc(h.heap, func(a, b Top[T]) int {
		switch {
		case topLess(a, b):
			return -1
		case topLess(b, a):
			return 1
		}
		return 0
	})
	return h.heap
}

// FoldTopK returns the k largest entries of the elementwise plus-merge of
// the index-sorted sparse vectors in parts, in descending order (ties
// broken by lower index first), without building the merged vector: the
// union streams through gb.VecFold into a bounded heap, so the cost is
// O(Σ len(parts) + kept · log k) time and O(k) space per heap. An index's
// value is the sum over every part that stores it, so the answer is
// exactly that of sorting the merged vector and keeping the first k. Nil
// parts are skipped; k larger than the entry count returns everything.
//
// Parts holding gb.ParallelFoldMin entries or more between them are folded
// on every core: gb.AppendSplit cuts the index space into gb.FoldRanges
// ranges, and each range streams into a heap of its own (see
// foldTopKRanges).
func FoldTopK[T gb.Number](parts []*gb.Vector[T], k int) ([]Top[T], error) {
	if k < 0 {
		return nil, fmt.Errorf("%w: k = %d", gb.ErrInvalidValue, k)
	}
	if n := gb.FoldRanges(parts); n > 1 {
		return foldTopKRanges(parts, gb.AppendSplit(make([]gb.Index, 0, n+1), parts, n), k), nil
	}
	n := 0
	for _, p := range parts {
		if p != nil {
			n += p.NVals()
		}
	}
	h := newTopHeap[T](k, n)
	gb.VecFold(parts, gb.Plus[T]().Op, h.offer)
	return h.sorted(), nil
}

// foldTopKRanges is FoldTopK over the index ranges of bounds (range r is
// [bounds[r], bounds[r+1])), folded concurrently. Every index lies in
// exactly one range and the selection order is total, so the k best of
// the union of the per-range k best are the k best overall: the answer is
// bit-identical to the serial fold's, ties included. The heaps share one
// backing array, which also holds the final ranking; as in the serial
// fold, a range's heap has room for min(k, its entries), so a huge k costs
// no more than the parts hold.
func foldTopKRanges[T gb.Number](parts []*gb.Vector[T], bounds []gb.Index, k int) []Top[T] {
	heaps := make([]topHeap[T], len(bounds)-1)
	room := 0
	for r := range heaps {
		heaps[r].k = min(k, gb.VecNValsRange(parts, bounds[r], bounds[r+1]))
		room += heaps[r].k
	}
	buf := make([]Top[T], room)
	room = 0
	for r := range heaps {
		n := heaps[r].k
		heaps[r] = topHeap[T]{k: k, heap: buf[room : room : room+n]}
		room += n
	}
	// A copy for the helpers, so that a caller's parts slice never has to
	// live on the heap for the serial path's sake.
	ps := slices.Clone(parts)
	gb.ParallelFor(len(heaps), func(r int) {
		gb.VecFoldRange(ps, bounds[r], bounds[r+1], gb.Plus[T]().Op, heaps[r].offer)
	})
	kept := 0
	for _, h := range heaps {
		kept += copy(buf[kept:], h.heap)
	}
	all := topHeap[T]{heap: buf[:kept]}
	return all.sorted()[:min(k, kept)]
}

// SelectTopK returns the k largest entries of v: FoldTopK of the one
// vector.
func SelectTopK[T gb.Number](v *gb.Vector[T], k int) ([]Top[T], error) {
	return FoldTopK([]*gb.Vector[T]{v}, k)
}

// Summary aggregates the headline statistics of a traffic matrix.
type Summary struct {
	// Entries is the number of stored (src, dst) pairs.
	Entries int
	// Sources is the number of distinct sources with traffic.
	Sources int
	// Destinations is the number of distinct destinations with traffic.
	Destinations int
	// TotalPackets is the sum of all values.
	TotalPackets uint64
	// MaxOutDegree is the largest per-source destination fan-out.
	MaxOutDegree uint64
	// MaxInDegree is the largest per-destination source fan-in.
	MaxInDegree uint64
}

// Summarize computes a Summary with GraphBLAS reductions.
func Summarize(m *gb.Matrix[uint64]) (Summary, error) {
	var s Summary
	s.Entries = m.NVals()
	total, err := gb.ReduceScalar(m, gb.Plus[uint64]())
	if err != nil {
		return s, err
	}
	s.TotalPackets = total
	od, err := OutDegrees(m)
	if err != nil {
		return s, err
	}
	id, err := InDegrees(m)
	if err != nil {
		return s, err
	}
	s.Sources = od.NVals()
	s.Destinations = id.NVals()
	s.MaxOutDegree, err = gb.VecReduce(od, gb.MaxWith[uint64](0))
	if err != nil {
		return s, err
	}
	s.MaxInDegree, err = gb.VecReduce(id, gb.MaxWith[uint64](0))
	if err != nil {
		return s, err
	}
	return s, nil
}
