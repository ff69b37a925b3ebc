// Package algo implements the graph algorithms the SuiteSparse GraphBLAS
// ecosystem is known for — BFS, triangle counting and k-truss — expressed
// over the semiring kernels in internal/gb. Davis's companion papers (ACM
// TOMS Algorithm 1000; HPEC'18 "triangle counting and k-truss") evaluate
// exactly these workloads; they are the analyses a traffic-matrix
// deployment runs on the accumulated hypersparse matrices.
package algo

import (
	"fmt"

	"hhgb/internal/gb"
)

// BFS returns the hop distance from source to every reachable vertex
// (distance 0 for the source itself) as a hypersparse vector. The
// traversal is level-synchronous vxm over the boolean-like any/pair
// structure of the adjacency matrix a (values are ignored; the pattern is
// the graph).
func BFS(a *gb.Matrix[uint64], source gb.Index) (*gb.Vector[uint64], error) {
	n := a.NRows()
	if a.NCols() != n {
		return nil, fmt.Errorf("%w: adjacency matrix %dx%d not square", gb.ErrDimensionMismatch, a.NRows(), a.NCols())
	}
	if source >= n {
		return nil, fmt.Errorf("%w: source %d outside %d vertices", gb.ErrIndexOutOfBounds, source, n)
	}
	dist, err := gb.NewVector[uint64](n)
	if err != nil {
		return nil, err
	}
	if err := dist.Build([]gb.Index{source}, []uint64{0}, gb.First[uint64]); err != nil {
		return nil, err
	}
	frontier := dist.Dup()

	// any.pair: reachability only; values collapse to 1.
	anyPair := gb.Semiring[uint64]{
		Add:  gb.Any[uint64](),
		Mul:  func(_, _ uint64) uint64 { return 1 },
		Name: "any.pair",
	}
	for depth := uint64(1); frontier.NVals() > 0; depth++ {
		next, err := gb.VxM(frontier, a, anyPair)
		if err != nil {
			return nil, err
		}
		// Keep only vertices not seen before.
		fresh, err := vecMaskOut(next, dist)
		if err != nil {
			return nil, err
		}
		if fresh.NVals() == 0 {
			break
		}
		d := depth
		depthVec, err := gb.VecApply(fresh, func(uint64) uint64 { return d })
		if err != nil {
			return nil, err
		}
		dist, err = gb.VecEWiseAdd(dist, depthVec, gb.First[uint64])
		if err != nil {
			return nil, err
		}
		frontier = depthVec
	}
	return dist, nil
}

// vecMaskOut returns the entries of v whose index is NOT present in mask
// (a structural complement mask).
func vecMaskOut[T gb.Number](v, mask *gb.Vector[T]) (*gb.Vector[T], error) {
	out, err := gb.NewVector[T](v.Size())
	if err != nil {
		return nil, err
	}
	var idx []gb.Index
	var vals []T
	v.Iterate(func(i gb.Index, x T) bool {
		if _, err := mask.ExtractElement(i); err != nil {
			idx = append(idx, i)
			vals = append(vals, x)
		}
		return true
	})
	if err := out.Build(idx, vals, gb.First[T]); err != nil && len(idx) > 0 {
		return nil, err
	}
	return out, nil
}

// TriangleCount returns the number of triangles in the undirected graph
// whose adjacency pattern is a (which must be symmetric with an empty
// diagonal). It uses the Sandia L·L formulation from Davis's HPEC'18
// paper: count = reduce(EWiseMult(L, L·L)) over plus.pair, where L is the
// strictly lower triangle.
func TriangleCount(a *gb.Matrix[uint64]) (uint64, error) {
	if a.NRows() != a.NCols() {
		return 0, fmt.Errorf("%w: adjacency matrix not square", gb.ErrDimensionMismatch)
	}
	l, err := gb.Tril(a, -1)
	if err != nil {
		return 0, err
	}
	// C<L> = L·L over plus.pair: the masked multiply only computes output
	// positions that are themselves edges, which is what makes the Sandia
	// formulation subquadratic on sparse graphs.
	masked, err := gb.MxMMasked(l, l, gb.PlusPair[uint64](), gb.StructuralMask(l))
	if err != nil {
		return 0, err
	}
	return gb.ReduceScalar(masked, gb.Plus[uint64]())
}

// KTruss returns the k-truss of the undirected graph a: the maximal
// subgraph in which every edge supports at least k-2 triangles. The
// returned matrix holds, for each surviving edge, its triangle support.
// Follows the iterated support-filter formulation of Davis (HPEC'18).
func KTruss(a *gb.Matrix[uint64], k int) (*gb.Matrix[uint64], error) {
	if k < 3 {
		return nil, fmt.Errorf("%w: k-truss needs k >= 3 (got %d)", gb.ErrInvalidValue, k)
	}
	if a.NRows() != a.NCols() {
		return nil, fmt.Errorf("%w: adjacency matrix not square", gb.ErrDimensionMismatch)
	}
	// Work on the full symmetric pattern with values 1.
	c, err := gb.Apply(a, func(uint64) uint64 { return 1 })
	if err != nil {
		return nil, err
	}
	support := k - 2
	for {
		// Support of each surviving edge: C<C> = C·C over plus.pair.
		sup, err := gb.MxMMasked(c, c, gb.PlusPair[uint64](), gb.StructuralMask(c))
		if err != nil {
			return nil, err
		}
		keep, err := gb.Select(sup, func(_, _ gb.Index, v uint64) bool {
			return v >= uint64(support)
		})
		if err != nil {
			return nil, err
		}
		if keep.NVals() == c.NVals() {
			return keep, nil
		}
		if keep.NVals() == 0 {
			return keep, nil
		}
		c, err = gb.Apply(keep, func(uint64) uint64 { return 1 })
		if err != nil {
			return nil, err
		}
	}
}
