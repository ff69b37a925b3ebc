package algo

import (
	"errors"
	"math/rand"
	"testing"

	"hhgb/internal/gb"
)

// undirected builds a symmetric adjacency matrix from an edge list.
func undirected(t testing.TB, n gb.Index, edges [][2]gb.Index) *gb.Matrix[uint64] {
	t.Helper()
	m := gb.MustNewMatrix[uint64](n, n)
	for _, e := range edges {
		if err := m.SetElement(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
		if err := m.SetElement(e[1], e[0], 1); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// pathGraph returns 0-1-2-...-n-1.
func pathGraph(t testing.TB, n int) *gb.Matrix[uint64] {
	t.Helper()
	var edges [][2]gb.Index
	for k := 0; k < n-1; k++ {
		edges = append(edges, [2]gb.Index{gb.Index(uint64(k)), gb.Index(uint64(k + 1))})
	}
	return undirected(t, gb.Index(uint64(n)), edges)
}

func TestBFSPath(t *testing.T) {
	a := pathGraph(t, 6)
	dist, err := BFS(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := gb.Index(0); v < 6; v++ {
		d, err := dist.ExtractElement(v)
		if err != nil || d != uint64(v) {
			t.Fatalf("dist(%d) = %d, %v; want %d", v, d, err, v)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	a := undirected(t, 10, [][2]gb.Index{{0, 1}, {1, 2}, {5, 6}})
	dist, err := BFS(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dist.NVals() != 3 {
		t.Fatalf("reached %d vertices, want 3", dist.NVals())
	}
	if _, err := dist.ExtractElement(5); !errors.Is(err, gb.ErrNoValue) {
		t.Fatal("unreachable vertex got a distance")
	}
}

func TestBFSSourceOnly(t *testing.T) {
	a := gb.MustNewMatrix[uint64](8, 8)
	dist, err := BFS(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if dist.NVals() != 1 {
		t.Fatalf("NVals = %d", dist.NVals())
	}
	d, _ := dist.ExtractElement(3)
	if d != 0 {
		t.Fatalf("dist(source) = %d", d)
	}
}

func TestBFSErrors(t *testing.T) {
	rect := gb.MustNewMatrix[uint64](4, 5)
	if _, err := BFS(rect, 0); !errors.Is(err, gb.ErrDimensionMismatch) {
		t.Fatalf("rect: %v", err)
	}
	sq := gb.MustNewMatrix[uint64](4, 4)
	if _, err := BFS(sq, 9); !errors.Is(err, gb.ErrIndexOutOfBounds) {
		t.Fatalf("oob: %v", err)
	}
}

func TestBFSAgainstReferenceOnRandomGraph(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n = 60
	var edges [][2]gb.Index
	for k := 0; k < 150; k++ {
		edges = append(edges, [2]gb.Index{gb.Index(r.Uint64() % n), gb.Index(r.Uint64() % n)})
	}
	a := undirected(t, n, edges)
	dist, err := BFS(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reference BFS over an adjacency map.
	adj := make(map[gb.Index][]gb.Index)
	a.Iterate(func(i, j gb.Index, _ uint64) bool {
		adj[i] = append(adj[i], j)
		return true
	})
	ref := map[gb.Index]uint64{0: 0}
	queue := []gb.Index{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if _, seen := ref[w]; !seen {
				ref[w] = ref[v] + 1
				queue = append(queue, w)
			}
		}
	}
	if dist.NVals() != len(ref) {
		t.Fatalf("reached %d, reference %d", dist.NVals(), len(ref))
	}
	dist.Iterate(func(i gb.Index, d uint64) bool {
		if ref[i] != d {
			t.Fatalf("dist(%d) = %d, reference %d", i, d, ref[i])
		}
		return true
	})
}

func TestTriangleCountKnownGraphs(t *testing.T) {
	// A single triangle.
	tri := undirected(t, 4, [][2]gb.Index{{0, 1}, {1, 2}, {0, 2}})
	n, err := TriangleCount(tri)
	if err != nil || n != 1 {
		t.Fatalf("triangle: %d, %v", n, err)
	}
	// K4 has C(4,3) = 4 triangles.
	k4 := undirected(t, 4, [][2]gb.Index{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	n, err = TriangleCount(k4)
	if err != nil || n != 4 {
		t.Fatalf("K4: %d, %v", n, err)
	}
	// A path has none.
	p := pathGraph(t, 10)
	n, err = TriangleCount(p)
	if err != nil || n != 0 {
		t.Fatalf("path: %d, %v", n, err)
	}
	// K5: C(5,3) = 10.
	var k5e [][2]gb.Index
	for i := gb.Index(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			k5e = append(k5e, [2]gb.Index{i, j})
		}
	}
	k5 := undirected(t, 5, k5e)
	n, err = TriangleCount(k5)
	if err != nil || n != 10 {
		t.Fatalf("K5: %d, %v", n, err)
	}
}

func TestTriangleCountAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	const n = 30
	var edges [][2]gb.Index
	seen := map[[2]gb.Index]bool{}
	for k := 0; k < 80; k++ {
		i, j := gb.Index(r.Uint64()%n), gb.Index(r.Uint64()%n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		if !seen[[2]gb.Index{i, j}] {
			seen[[2]gb.Index{i, j}] = true
			edges = append(edges, [2]gb.Index{i, j})
		}
	}
	a := undirected(t, n, edges)
	got, err := TriangleCount(a)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, e1 := range edges {
		for _, e2 := range edges {
			if e1[1] == e2[0] && seen[[2]gb.Index{e1[0], e2[1]}] {
				want++
			}
		}
	}
	if got != want {
		t.Fatalf("triangles = %d, brute force %d", got, want)
	}
}

func TestKTrussTriangleSurvives(t *testing.T) {
	// Triangle + pendant edge: 3-truss keeps the triangle, drops the tail.
	a := undirected(t, 5, [][2]gb.Index{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	k3, err := KTruss(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if k3.NVals() != 6 { // 3 undirected edges = 6 stored entries
		t.Fatalf("3-truss edges = %d, want 6", k3.NVals())
	}
	if _, err := k3.ExtractElement(2, 3); !errors.Is(err, gb.ErrNoValue) {
		t.Fatal("pendant edge survived 3-truss")
	}
	// 4-truss of a lone triangle is empty (each edge supports 1 < 2).
	k4, err := KTruss(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if k4.NVals() != 0 {
		t.Fatalf("4-truss of triangle = %d entries", k4.NVals())
	}
}

func TestKTrussK4(t *testing.T) {
	k4 := undirected(t, 4, [][2]gb.Index{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	out, err := KTruss(k4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Every edge of K4 supports exactly 2 triangles: all survive k=4.
	if out.NVals() != 12 {
		t.Fatalf("4-truss of K4 = %d entries, want 12", out.NVals())
	}
	v, _ := out.ExtractElement(0, 1)
	if v != 2 {
		t.Fatalf("support(0,1) = %d, want 2", v)
	}
}

func TestKTrussValidation(t *testing.T) {
	a := gb.MustNewMatrix[uint64](4, 4)
	if _, err := KTruss(a, 2); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("k=2: %v", err)
	}
	rect := gb.MustNewMatrix[uint64](4, 5)
	if _, err := KTruss(rect, 3); !errors.Is(err, gb.ErrDimensionMismatch) {
		t.Fatalf("rect: %v", err)
	}
}
