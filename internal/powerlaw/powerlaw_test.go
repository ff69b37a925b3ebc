package powerlaw

import (
	"errors"
	"math"
	"testing"

	"hhgb/internal/gb"
)

func TestRMATDeterministic(t *testing.T) {
	g1, err := NewRMAT(16, 42)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewRMAT(16, 42)
	e1 := g1.Edges(1000)
	e2 := g2.Edges(1000)
	for k := range e1 {
		if e1[k] != e2[k] {
			t.Fatalf("edge %d differs: %v vs %v", k, e1[k], e2[k])
		}
	}
}

func TestRMATSeedsDiffer(t *testing.T) {
	g1, _ := NewRMAT(16, 1)
	g2, _ := NewRMAT(16, 2)
	same := 0
	e1, e2 := g1.Edges(500), g2.Edges(500)
	for k := range e1 {
		if e1[k] == e2[k] {
			same++
		}
	}
	if same > 50 {
		t.Fatalf("different seeds produced %d/500 identical edges", same)
	}
}

func TestRMATBounds(t *testing.T) {
	g, _ := NewRMAT(10, 7)
	n := gb.Index(1) << g.scale
	for _, e := range g.Edges(5000) {
		if e.Row >= n || e.Col >= n {
			t.Fatalf("edge out of bounds: %v", e)
		}
		if e.Val != 1 {
			t.Fatalf("edge weight = %d", e.Val)
		}
	}
}

func TestRMATParamValidation(t *testing.T) {
	if _, err := NewRMAT(0, 1); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("scale 0: %v", err)
	}
	if _, err := NewRMAT(63, 1); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("scale 63: %v", err)
	}
	if _, err := NewRMATParams(10, 1, 0.5, 0.5, 0.5, 0.5); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("bad probs: %v", err)
	}
	if _, err := NewRMATParams(10, 1, -0.1, 0.5, 0.3, 0.3); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("negative prob: %v", err)
	}
}

func TestRMATSkew(t *testing.T) {
	// Graph500 parameters concentrate mass in low vertex ids: vertex id 0's
	// quadrant (a = 0.57) must attract far more edges than uniform would.
	g, _ := NewRMAT(12, 99)
	edges := g.Edges(20000)
	low := 0
	half := gb.Index(1) << (g.scale - 1)
	for _, e := range edges {
		if e.Row < half {
			low++
		}
	}
	frac := float64(low) / float64(len(edges))
	// P(row < half) = a + b = 0.76 per top-level split.
	if frac < 0.70 || frac > 0.82 {
		t.Fatalf("low-half fraction = %v, want ~0.76", frac)
	}
}

func TestRMATFill(t *testing.T) {
	g, _ := NewRMAT(10, 3)
	rows := make([]gb.Index, 100)
	cols := make([]gb.Index, 100)
	if err := g.Fill(rows, cols); err != nil {
		t.Fatal(err)
	}
	if err := g.Fill(rows, cols[:50]); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("mismatched fill: %v", err)
	}
}

func TestBoundedParetoRange(t *testing.T) {
	// alpha=0.5 gives P(X > 2^20) ≈ 2^-10, so 1e5 draws see the tail with
	// overwhelming probability while every draw stays in range.
	p, err := NewBoundedPareto(1<<40, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	seenHigh := false
	for k := 0; k < 100000; k++ {
		v := p.Next()
		if v >= 1<<40 {
			t.Fatalf("out of range: %d", v)
		}
		if v > 1<<20 {
			seenHigh = true
		}
	}
	if !seenHigh {
		t.Fatal("heavy tail never sampled above 2^20 in 1e5 draws")
	}
}

func TestBoundedParetoSkew(t *testing.T) {
	p, _ := NewBoundedPareto(1<<30, 1.2, 13)
	low := 0
	const draws = 50000
	for k := 0; k < draws; k++ {
		if p.Next() < 100 {
			low++
		}
	}
	// With alpha=1.2 the mass below 100 is overwhelming.
	if float64(low)/draws < 0.9 {
		t.Fatalf("low-100 mass = %v, want > 0.9", float64(low)/draws)
	}
}

func TestBoundedParetoValidation(t *testing.T) {
	if _, err := NewBoundedPareto(0, 1, 1); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("n=0: %v", err)
	}
	if _, err := NewBoundedPareto(10, -1, 1); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("alpha<0: %v", err)
	}
}

func TestParetoPairs(t *testing.T) {
	p, err := NewParetoPairs(1<<32, 1.1, 77)
	if err != nil {
		t.Fatal(err)
	}
	edges := p.Edges(1000)
	if len(edges) != 1000 {
		t.Fatalf("len = %d", len(edges))
	}
	// Rows and columns are drawn independently: they should not be equal
	// everywhere.
	eq := 0
	for _, e := range edges {
		if e.Row == e.Col {
			eq++
		}
	}
	if eq > 900 {
		t.Fatalf("rows == cols in %d/1000 draws", eq)
	}
}

func TestToTuples(t *testing.T) {
	edges := []Edge{{1, 2, 3}, {4, 5, 6}}
	r, c, v := ToTuples(edges)
	if r[1] != 4 || c[1] != 5 || v[1] != 6 {
		t.Fatalf("tuples = %v %v %v", r, c, v)
	}
}

func TestStreamSpecValidate(t *testing.T) {
	if err := (StreamSpec{TotalEdges: 100, SetSize: 33, Scale: 10, Seed: 1}).Validate(); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("indivisible: %v", err)
	}
	if err := (StreamSpec{TotalEdges: 0, SetSize: 1, Scale: 10}).Validate(); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("zero edges: %v", err)
	}
	if err := (StreamSpec{TotalEdges: 100, SetSize: 10, Scale: 0}).Validate(); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("zero scale: %v", err)
	}
	spec := StreamSpec{TotalEdges: 1000, SetSize: 100, Scale: 12, Seed: 1}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.Sets() != 10 {
		t.Fatalf("sets = %d", spec.Sets())
	}
}

func TestScaledSpecKeepsStructure(t *testing.T) {
	s := ScaledSpec(1_000_000, 1)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Sets() != 1000 {
		t.Fatalf("sets = %d, want 1000", s.Sets())
	}
	tiny := ScaledSpec(5000, 1)
	if err := tiny.Validate(); err != nil {
		t.Fatal(err)
	}
	if tiny.SetSize < 1000 {
		t.Fatalf("tiny set size = %d", tiny.SetSize)
	}
}

func TestGenerateSetDeterministicAndComplete(t *testing.T) {
	spec := StreamSpec{TotalEdges: 10000, SetSize: 1000, Scale: 14, Seed: 9}
	a, err := spec.GenerateSet(3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := spec.GenerateSet(3)
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("set regeneration differs at %d", k)
		}
	}
	// Different sets differ.
	c, _ := spec.GenerateSet(4)
	same := 0
	for k := range a {
		if a[k] == c[k] {
			same++
		}
	}
	if same > len(a)/10 {
		t.Fatalf("sets 3 and 4 share %d/%d edges", same, len(a))
	}
	// Sets tile the stream exactly.
	total := 0
	for k := 0; k < spec.Sets(); k++ {
		s, err := spec.GenerateSet(k)
		if err != nil {
			t.Fatal(err)
		}
		total += len(s)
	}
	if total != spec.TotalEdges {
		t.Fatalf("sets cover %d edges, want %d", total, spec.TotalEdges)
	}
	if _, err := spec.GenerateSet(-1); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("negative set: %v", err)
	}
	if _, err := spec.GenerateSet(10); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("set beyond end: %v", err)
	}
}

func TestFillSetMatchesGenerateSet(t *testing.T) {
	spec := StreamSpec{TotalEdges: 4000, SetSize: 1000, Scale: 12, Seed: 4}
	want, _ := spec.GenerateSet(2)
	rows := make([]gb.Index, spec.SetSize)
	cols := make([]gb.Index, spec.SetSize)
	if err := spec.FillSet(2, rows, cols); err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if rows[k] != want[k].Row || cols[k] != want[k].Col {
			t.Fatalf("FillSet diverges at %d", k)
		}
	}
	if err := spec.FillSet(2, rows[:10], cols[:10]); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("short slices: %v", err)
	}
}

func TestDegreeHistogramAndSlope(t *testing.T) {
	g, _ := NewRMAT(14, 21)
	edges := g.Edges(60000)
	hist := OutDegreeHistogram(edges)
	if len(hist) < 5 {
		t.Fatalf("degenerate histogram: %v", hist)
	}
	slope := FitSlope(hist)
	// Power law: clearly negative slope on log-log axes.
	if slope > -0.5 {
		t.Fatalf("slope = %v, want < -0.5 (power law)", slope)
	}
	if math.IsNaN(slope) || math.IsInf(slope, 0) {
		t.Fatalf("slope = %v", slope)
	}
}

func TestFitSlopeDegenerate(t *testing.T) {
	if s := FitSlope(map[int]int{}); s != 0 {
		t.Fatalf("empty hist slope = %v", s)
	}
	if s := FitSlope(map[int]int{3: 10}); s != 0 {
		t.Fatalf("single point slope = %v", s)
	}
}
