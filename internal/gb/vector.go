package gb

import (
	"fmt"
	"slices"
)

// vecTuple is a staged vector update.
type vecTuple[T Number] struct {
	idx Index
	val T
}

// Vector is a hypersparse vector of T values: sorted indices plus values,
// with a pending-tuple buffer mirroring Matrix's non-blocking mode.
type Vector[T Number] struct {
	n       Index
	idx     []Index
	val     []T
	pending []vecTuple[T]
	accum   BinaryOp[T]
}

// NewVector returns an empty vector of size n (> 0) with plus accumulation.
func NewVector[T Number](n Index) (*Vector[T], error) {
	if n == 0 {
		return nil, fmt.Errorf("%w: vector size must be nonzero", ErrInvalidValue)
	}
	return &Vector[T]{n: n, accum: Plus[T]().Op}, nil
}

// MustNewVector is NewVector that panics on error; for tests and examples.
func MustNewVector[T Number](n Index) *Vector[T] {
	v, err := NewVector[T](n)
	if err != nil {
		panic(err)
	}
	return v
}

// NVals returns the number of stored entries, materializing pending updates.
func (v *Vector[T]) NVals() int {
	v.Wait()
	return len(v.idx)
}

// SetElement stages v(i) ⊕= x.
func (v *Vector[T]) SetElement(i Index, x T) error {
	if i >= v.n {
		return fmt.Errorf("%w: %d outside vector of size %d", ErrIndexOutOfBounds, i, v.n)
	}
	v.pending = append(v.pending, vecTuple[T]{idx: i, val: x})
	return nil
}

// ExtractElement returns the stored value at i, or ErrNoValue.
func (v *Vector[T]) ExtractElement(i Index) (T, error) {
	var zero T
	if i >= v.n {
		return zero, fmt.Errorf("%w: %d outside vector of size %d", ErrIndexOutOfBounds, i, v.n)
	}
	v.Wait()
	p, ok := searchIndex(v.idx, i)
	if !ok {
		return zero, ErrNoValue
	}
	return v.val[p], nil
}

// ExtractTuples returns copies of the stored indices and values in order.
func (v *Vector[T]) ExtractTuples() ([]Index, []T) {
	v.Wait()
	return append([]Index(nil), v.idx...), append([]T(nil), v.val...)
}

// Iterate calls f for each stored entry in index order; stops early on false.
func (v *Vector[T]) Iterate(f func(i Index, x T) bool) {
	v.Wait()
	for k := range v.idx {
		if !f(v.idx[k], v.val[k]) {
			return
		}
	}
}

// Clear removes all entries, keeping the size and accumulator.
func (v *Vector[T]) Clear() {
	v.idx = nil
	v.val = nil
	v.pending = nil
}

// Dup returns a deep copy with pending updates materialized.
func (v *Vector[T]) Dup() *Vector[T] {
	v.Wait()
	return &Vector[T]{
		n:     v.n,
		idx:   append([]Index(nil), v.idx...),
		val:   append([]T(nil), v.val...),
		accum: v.accum,
	}
}

// Wait materializes pending vector updates (sort, combine, union-merge).
func (v *Vector[T]) Wait() {
	if len(v.pending) == 0 {
		return
	}
	p := v.pending
	v.pending = nil
	slices.SortStableFunc(p, func(a, b vecTuple[T]) int {
		switch {
		case a.idx < b.idx:
			return -1
		case a.idx > b.idx:
			return 1
		default:
			return 0
		}
	})
	w := 0
	for r := 1; r < len(p); r++ {
		if p[r].idx == p[w].idx {
			p[w].val = v.accum(p[w].val, p[r].val)
		} else {
			w++
			p[w] = p[r]
		}
	}
	p = p[:w+1]

	if len(v.idx) == 0 {
		v.idx = make([]Index, len(p))
		v.val = make([]T, len(p))
		for k := range p {
			v.idx[k] = p[k].idx
			v.val[k] = p[k].val
		}
		return
	}
	nidx := make([]Index, 0, len(v.idx)+len(p))
	nval := make([]T, 0, len(v.val)+len(p))
	i, j := 0, 0
	for i < len(v.idx) || j < len(p) {
		switch {
		case j >= len(p) || (i < len(v.idx) && v.idx[i] < p[j].idx):
			nidx = append(nidx, v.idx[i])
			nval = append(nval, v.val[i])
			i++
		case i >= len(v.idx) || p[j].idx < v.idx[i]:
			nidx = append(nidx, p[j].idx)
			nval = append(nval, p[j].val)
			j++
		default:
			nidx = append(nidx, v.idx[i])
			nval = append(nval, v.accum(v.val[i], p[j].val))
			i++
			j++
		}
	}
	v.idx, v.val = nidx, nval
}

// vecHead is one input's unread stretch during a VecFoldRange.
type vecHead[T Number] struct {
	idx []Index
	val []T
}

// manyHeads is VecFoldRange's growth path: more parts than its stack array
// holds take one O(len(parts)) allocation here.
func manyHeads[T Number](n int) []vecHead[T] { return make([]vecHead[T], 0, n) }

// VecFold streams the union of index-sorted sparse vectors without building
// it: visit is called once per distinct index, in strictly ascending index
// order, with the values of every part that stores the index folded left to
// right in part order (so a chain of VecEWiseAdd calls over the same parts
// yields exactly the visited sequence). Nil and empty parts are skipped.
// It allocates nothing for up to eight parts; the two-part merge — the
// default server runs two shards — is a tight loop of its own.
//
//hhgb:noalloc
func VecFold[T Number](parts []*Vector[T], add BinaryOp[T], visit func(Index, T)) {
	VecFoldRange(parts, 0, ^Index(0), add, visit)
}

// VecFoldRange is VecFold restricted to the indices in [lo, hi): each
// part's stretch is found by binary search and folded in place, as
// zero-copy sub-slices. Folding the ranges AppendSplit returns, one call
// each, visits exactly what one VecFold over the same parts visits.
//
//hhgb:noalloc
func VecFoldRange[T Number](parts []*Vector[T], lo, hi Index, add BinaryOp[T], visit func(Index, T)) {
	var stack [8]vecHead[T]
	heads := stack[:0]
	if len(parts) > len(stack) {
		heads = manyHeads[T](len(parts))
	}
	for _, p := range parts {
		if p == nil {
			continue
		}
		if a, b := p.span(lo, hi); a < b {
			heads = append(heads, vecHead[T]{idx: p.idx[a:b], val: p.val[a:b]})
		}
	}
	// k-way: a linear scan for the least head index, then fold the heads
	// that carry it. Exhausted heads are closed up in order, so the fold
	// order stays the part order.
	for len(heads) > 2 {
		least := heads[0].idx[0]
		for _, h := range heads[1:] {
			if h.idx[0] < least {
				least = h.idx[0]
			}
		}
		var acc T
		seen := false
		for i := 0; i < len(heads); {
			h := &heads[i]
			if h.idx[0] != least {
				i++
				continue
			}
			if seen {
				acc = add(acc, h.val[0])
			} else {
				acc, seen = h.val[0], true
			}
			h.idx, h.val = h.idx[1:], h.val[1:]
			if len(h.idx) == 0 {
				copy(heads[i:], heads[i+1:])
				heads = heads[:len(heads)-1]
				continue
			}
			i++
		}
		visit(least, acc)
	}
	if len(heads) == 2 {
		a, b := heads[0], heads[1]
		i, j := 0, 0
		for i < len(a.idx) && j < len(b.idx) {
			switch ai, bj := a.idx[i], b.idx[j]; {
			case ai < bj:
				visit(ai, a.val[i])
				i++
			case bj < ai:
				visit(bj, b.val[j])
				j++
			default:
				visit(ai, add(a.val[i], b.val[j]))
				i++
				j++
			}
		}
		heads[0] = vecHead[T]{idx: a.idx[i:], val: a.val[i:]}
		if j < len(b.idx) {
			heads[0] = vecHead[T]{idx: b.idx[j:], val: b.val[j:]}
		}
		heads = heads[:1]
	}
	if len(heads) == 1 {
		h := heads[0]
		for k, i := range h.idx {
			visit(i, h.val[k])
		}
	}
}

// VecEWiseAdd returns the union combination of a and b: VecFold's two-way
// merge written into an output sized once, for len(a)+len(b) entries.
func VecEWiseAdd[T Number](a, b *Vector[T], add BinaryOp[T]) (*Vector[T], error) {
	if a.n != b.n {
		return nil, fmt.Errorf("%w: vectors %d vs %d", ErrDimensionMismatch, a.n, b.n)
	}
	if add == nil {
		return nil, fmt.Errorf("%w: nil add operator", ErrInvalidValue)
	}
	room := a.NVals() + b.NVals()
	c := &Vector[T]{n: a.n, accum: a.accum, idx: make([]Index, 0, room), val: make([]T, 0, room)}
	VecFold([]*Vector[T]{a, b}, add, func(i Index, x T) {
		c.idx = append(c.idx, i)
		c.val = append(c.val, x)
	})
	return c, nil
}

// VecReduce folds all stored values with the monoid.
func VecReduce[T Number](v *Vector[T], m Monoid[T]) (T, error) {
	if m.Op == nil {
		var zero T
		return zero, fmt.Errorf("%w: monoid with nil operator", ErrInvalidValue)
	}
	v.Wait()
	acc := m.Identity
	for _, x := range v.val {
		acc = m.Op(acc, x)
	}
	return acc, nil
}
