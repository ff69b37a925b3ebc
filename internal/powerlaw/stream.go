package powerlaw

import (
	"fmt"
	"math"
	"sort"

	"hhgb/internal/gb"
)

// StreamSpec describes the paper's workload shape: TotalEdges entries
// divided into Sets() sets of SetSize entries, drawn from an R-MAT graph
// over 2^Scale vertices. The paper uses TotalEdges=100,000,000 and
// SetSize=100,000 (1,000 sets); laptop-scale runs shrink both while keeping
// the structure.
type StreamSpec struct {
	TotalEdges int
	SetSize    int
	Scale      int
	Seed       uint64
}

// Validate checks the specification.
func (s StreamSpec) Validate() error {
	if s.TotalEdges < 1 || s.SetSize < 1 {
		return fmt.Errorf("%w: stream sizes must be >= 1 (total %d, set %d)", gb.ErrInvalidValue, s.TotalEdges, s.SetSize)
	}
	if s.TotalEdges%s.SetSize != 0 {
		return fmt.Errorf("%w: total %d not divisible by set size %d", gb.ErrInvalidValue, s.TotalEdges, s.SetSize)
	}
	if s.Scale < 1 || s.Scale > 62 {
		return fmt.Errorf("%w: scale %d outside [1,62]", gb.ErrInvalidValue, s.Scale)
	}
	return nil
}

// Sets returns the number of sets the stream divides into.
func (s StreamSpec) Sets() int { return s.TotalEdges / s.SetSize }

// ScaledSpec returns the paper's workload shape shrunk to totalEdges while
// preserving the 1,000-sets structure where possible (set size is
// totalEdges/1000, floored to at least 1,000 entries).
func ScaledSpec(totalEdges int, seed uint64) StreamSpec {
	setSize := totalEdges / 1000
	if setSize < 1000 {
		setSize = 1000
	}
	if setSize > totalEdges {
		setSize = totalEdges
	}
	totalEdges = (totalEdges / setSize) * setSize
	return StreamSpec{TotalEdges: totalEdges, SetSize: setSize, Scale: 22, Seed: seed}
}

// setSeed derives the deterministic sub-seed for set k, mixing with
// splitmix64 so neighbouring sets are statistically independent.
func (s StreamSpec) setSeed(k int) uint64 {
	x := s.Seed + 0x9e3779b97f4a7c15*uint64(k+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// GenerateSet produces set k (0-based) of the stream. Any process can
// generate any set independently and reproducibly — the shared-nothing
// property the cluster harness relies on.
func (s StreamSpec) GenerateSet(k int) ([]Edge, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if k < 0 || k >= s.Sets() {
		return nil, fmt.Errorf("%w: set %d outside [0,%d)", gb.ErrInvalidValue, k, s.Sets())
	}
	g, err := NewRMAT(s.Scale, s.setSeed(k))
	if err != nil {
		return nil, err
	}
	return g.Edges(s.SetSize), nil
}

// FillSet regenerates set k into pre-allocated slices of length SetSize,
// avoiding per-set allocation in tight benchmark loops.
func (s StreamSpec) FillSet(k int, rows, cols []gb.Index) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if k < 0 || k >= s.Sets() {
		return fmt.Errorf("%w: set %d outside [0,%d)", gb.ErrInvalidValue, k, s.Sets())
	}
	if len(rows) != s.SetSize || len(cols) != s.SetSize {
		return fmt.Errorf("%w: fill slices must have length %d", gb.ErrInvalidValue, s.SetSize)
	}
	g, err := NewRMAT(s.Scale, s.setSeed(k))
	if err != nil {
		return err
	}
	return g.Fill(rows, cols)
}

// OutDegreeHistogram returns degree -> number of vertices with that
// out-degree, for slope analysis of generated graphs.
func OutDegreeHistogram(edges []Edge) map[int]int {
	deg := make(map[gb.Index]int)
	for _, e := range edges {
		deg[e.Row]++
	}
	hist := make(map[int]int)
	for _, d := range deg {
		hist[d]++
	}
	return hist
}

// FitSlope estimates the power-law exponent of a degree histogram by
// least-squares regression of log(count) on log(degree). A power-law
// degree distribution yields a clearly negative slope; the Graph500 R-MAT
// parameters give roughly -2 at moderate scales.
func FitSlope(hist map[int]int) float64 {
	var xs, ys []float64
	for d, c := range hist {
		if d > 0 && c > 0 {
			xs = append(xs, math.Log(float64(d)))
			ys = append(ys, math.Log(float64(c)))
		}
	}
	if len(xs) < 2 {
		return 0
	}
	sort.Sort(byPair{xs, ys})
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for k := range xs {
		sx += xs[k]
		sy += ys[k]
		sxx += xs[k] * xs[k]
		sxy += xs[k] * ys[k]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

type byPair struct{ xs, ys []float64 }

func (p byPair) Len() int { return len(p.xs) }
func (p byPair) Swap(i, j int) {
	p.xs[i], p.xs[j] = p.xs[j], p.xs[i]
	p.ys[i], p.ys[j] = p.ys[j], p.ys[i]
}
func (p byPair) Less(i, j int) bool { return p.xs[i] < p.xs[j] }
