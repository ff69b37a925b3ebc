// Package powerlaw generates the streaming power-law graph workloads used
// by the paper's scalability experiment: "a power-law graph of 100,000,000
// entries divided up into 1,000 sets of 100,000 entries".
//
// Two generator families are provided:
//
//   - RMAT: the recursive Kronecker-style sampler with Graph500 parameters,
//     the de-facto standard power-law graph generator in the GraphBLAS and
//     Graph Challenge literature.
//   - BoundedPareto: independent power-law row and column samplers,
//     matching the "perfect power-law" traffic matrices of the D4M papers.
//
// All generators are deterministic under an explicit seed, and StreamSpec
// derives an independent, reproducible sub-seed per set so that thousands
// of simulated processes can each generate their own sets with no shared
// state — exactly how the paper's shared-nothing processes behave.
package powerlaw

import (
	"fmt"
	"math"
	"math/rand/v2"

	"hhgb/internal/gb"
)

// Edge is one streaming update: a directed (source, destination) pair with
// an integer weight (packet/flow count in the traffic-matrix reading).
type Edge struct {
	Row gb.Index
	Col gb.Index
	Val uint64
}

// Graph500 R-MAT partition probabilities.
const (
	Graph500A = 0.57
	Graph500B = 0.19
	Graph500C = 0.19
	Graph500D = 0.05
)

// RMAT samples edges from the recursive matrix (Kronecker) distribution.
// Each edge is generated by scale recursive quadrant choices, yielding a
// power-law degree distribution over 2^scale vertices.
type RMAT struct {
	scale int
	// Quadrant thresholds quantized to 16 bits: one PCG draw yields four
	// level decisions, which matters because edge sampling is the hot loop
	// of every benchmark harness. Quantization error is < 2^-16 per level.
	t1, t2, t3 uint32
	rng        *rand.PCG
	word       uint64
	avail      int
}

// NewRMAT returns a Graph500-parameter R-MAT generator over 2^scale
// vertices, seeded deterministically.
func NewRMAT(scale int, seed uint64) (*RMAT, error) {
	return NewRMATParams(scale, seed, Graph500A, Graph500B, Graph500C, Graph500D)
}

// NewRMATParams returns an R-MAT generator with explicit quadrant
// probabilities (must be non-negative and sum to 1 within 1e-9).
func NewRMATParams(scale int, seed uint64, a, b, c, d float64) (*RMAT, error) {
	if scale < 1 || scale > 62 {
		return nil, fmt.Errorf("%w: rmat scale %d outside [1,62]", gb.ErrInvalidValue, scale)
	}
	if a < 0 || b < 0 || c < 0 || d < 0 || math.Abs(a+b+c+d-1) > 1e-9 {
		return nil, fmt.Errorf("%w: rmat probabilities %v,%v,%v,%v must sum to 1", gb.ErrInvalidValue, a, b, c, d)
	}
	return &RMAT{
		scale: scale,
		t1:    uint32(a*65536 + 0.5),
		t2:    uint32((a+b)*65536 + 0.5),
		t3:    uint32((a+b+c)*65536 + 0.5),
		rng:   rand.NewPCG(seed, seed^0x9e3779b97f4a7c15),
	}, nil
}

// Edge samples one edge.
func (g *RMAT) Edge() Edge {
	var row, col gb.Index
	for level := 0; level < g.scale; level++ {
		if g.avail == 0 {
			g.word = g.rng.Uint64()
			g.avail = 4
		}
		u := uint32(g.word & 0xffff)
		g.word >>= 16
		g.avail--
		switch {
		case u < g.t1:
			// top-left: no bits set
		case u < g.t2:
			col |= 1 << uint(level)
		case u < g.t3:
			row |= 1 << uint(level)
		default:
			row |= 1 << uint(level)
			col |= 1 << uint(level)
		}
	}
	return Edge{Row: row, Col: col, Val: 1}
}

// Edges samples n edges.
func (g *RMAT) Edges(n int) []Edge {
	out := make([]Edge, n)
	for k := range out {
		out[k] = g.Edge()
	}
	return out
}

// Fill samples len(rows) edges directly into pre-allocated row/column
// slices (the allocation-free ingest path). rows and cols must have equal
// length.
func (g *RMAT) Fill(rows, cols []gb.Index) error {
	if len(rows) != len(cols) {
		return fmt.Errorf("%w: fill slices %d/%d differ", gb.ErrInvalidValue, len(rows), len(cols))
	}
	for k := range rows {
		e := g.Edge()
		rows[k] = e.Row
		cols[k] = e.Col
	}
	return nil
}

// BoundedPareto samples power-law values over {0,…,n-1} for arbitrarily
// large n using the continuous bounded-Pareto inverse CDF with shape
// alpha > 0 (tail exponent alpha+1). O(1) memory, O(1) per sample.
type BoundedPareto struct {
	n     float64
	alpha float64
	den   float64
	rng   *rand.Rand
}

// NewBoundedPareto returns a sampler over {0,…,n-1} with shape alpha.
func NewBoundedPareto(n gb.Index, alpha float64, seed uint64) (*BoundedPareto, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: range must be >= 1", gb.ErrInvalidValue)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("%w: alpha %v <= 0", gb.ErrInvalidValue, alpha)
	}
	nf := float64(n)
	return &BoundedPareto{
		n:     nf,
		alpha: alpha,
		den:   1 - math.Pow(nf, -alpha),
		rng:   rand.New(rand.NewPCG(seed, seed^0x94d049bb133111eb)),
	}, nil
}

// Next samples one value; 0 is the most probable.
func (p *BoundedPareto) Next() gb.Index {
	u := p.rng.Float64()
	x := math.Pow(1-u*p.den, -1/p.alpha) // in [1, n]
	v := uint64(x) - 1
	if v >= uint64(p.n) {
		v = uint64(p.n) - 1
	}
	return gb.Index(v)
}

// PairSampler generates edges with independently power-law-distributed
// rows and columns — the "perfect power-law" traffic-matrix model.
type PairSampler struct {
	rowS, colS interface{ Next() gb.Index }
}

// NewParetoPairs returns a PairSampler drawing rows and columns from
// independent bounded-Pareto distributions over {0,…,n-1}.
func NewParetoPairs(n gb.Index, alpha float64, seed uint64) (*PairSampler, error) {
	rs, err := NewBoundedPareto(n, alpha, seed)
	if err != nil {
		return nil, err
	}
	cs, err := NewBoundedPareto(n, alpha, seed^0xa5a5a5a5a5a5a5a5)
	if err != nil {
		return nil, err
	}
	return &PairSampler{rowS: rs, colS: cs}, nil
}

// Edge samples one edge.
func (p *PairSampler) Edge() Edge {
	return Edge{Row: p.rowS.Next(), Col: p.colS.Next(), Val: 1}
}

// Edges samples n edges.
func (p *PairSampler) Edges(n int) []Edge {
	out := make([]Edge, n)
	for k := range out {
		out[k] = p.Edge()
	}
	return out
}

// ToTuples converts an edge slice to the parallel slices the gb and hier
// ingest APIs take.
func ToTuples(edges []Edge) (rows, cols []gb.Index, vals []uint64) {
	rows = make([]gb.Index, len(edges))
	cols = make([]gb.Index, len(edges))
	vals = make([]uint64, len(edges))
	for k, e := range edges {
		rows[k] = e.Row
		cols[k] = e.Col
		vals[k] = e.Val
	}
	return rows, cols, vals
}
