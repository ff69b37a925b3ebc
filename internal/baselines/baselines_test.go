package baselines

import (
	"testing"

	"hhgb/internal/gb"
	"hhgb/internal/powerlaw"
)

const testDim gb.Index = 1 << 22

// testStream returns a deterministic power-law batch stream.
func testStream(t testing.TB, batches, batchSize int) [][]Edge {
	t.Helper()
	g, err := powerlaw.NewRMAT(20, 0xfeed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]Edge, batches)
	for k := range out {
		out[k] = g.Edges(batchSize)
	}
	return out
}

// runEngine streams all batches through an engine and flushes.
func runEngine(t testing.TB, e Engine, stream [][]Edge) {
	t.Helper()
	for _, batch := range stream {
		if err := e.Ingest(batch); err != nil {
			t.Fatalf("%s: ingest: %v", e.Name(), err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("%s: flush: %v", e.Name(), err)
	}
}

func TestAllEnginesConserveCount(t *testing.T) {
	// Every engine reports Count == Σ batches: no update is lost or
	// double-counted on the way in.
	stream := testStream(t, 20, 500)
	total := int64(20 * 500)
	for name, factory := range Registry(testDim) {
		e, err := factory()
		if err != nil {
			t.Fatalf("%s: factory: %v", name, err)
		}
		runEngine(t, e, stream)
		if e.Count() != total {
			t.Errorf("%s: Count = %d, want %d", name, e.Count(), total)
		}
		if e.Name() != name {
			t.Errorf("registry name %q != engine name %q", name, e.Name())
		}
		if err := e.Close(); err != nil {
			t.Errorf("%s: close: %v", name, err)
		}
		// Closed engines refuse further work.
		if err := e.Ingest(stream[0]); err == nil {
			t.Errorf("%s: ingest after close succeeded", name)
		}
		// Double close is a no-op.
		if err := e.Close(); err != nil {
			t.Errorf("%s: double close: %v", name, err)
		}
	}
}

func TestFig2OrderCoversRegistry(t *testing.T) {
	reg := Registry(testDim)
	for _, name := range Fig2Order() {
		if _, ok := reg[name]; !ok {
			t.Errorf("Fig2Order lists unknown engine %q", name)
		}
	}
	// flat-graphblas (the ablation) and sharded-graphblas (the concurrent
	// frontend, not a paper system) are intentionally not in Fig. 2.
	if len(Fig2Order()) != len(reg)-2 {
		t.Errorf("Fig2Order has %d engines, registry %d", len(Fig2Order()), len(reg))
	}
}

func TestGraphBLASEnginesAgree(t *testing.T) {
	// Hierarchical and flat GraphBLAS must produce identical matrices —
	// the linearity invariant surfaced at the engine level.
	stream := testStream(t, 15, 400)
	he, err := NewHierGraphBLAS(testDim, []int{1 << 10, 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFlatGraphBLAS(testDim)
	if err != nil {
		t.Fatal(err)
	}
	runEngine(t, he, stream)
	runEngine(t, fe, stream)
	hq, err := he.Query()
	if err != nil {
		t.Fatal(err)
	}
	fq, err := fe.Query()
	if err != nil {
		t.Fatal(err)
	}
	if !gb.Equal(hq, fq) {
		t.Fatal("hierarchical and flat GraphBLAS diverged")
	}
	// Value mass equals update count (all weights are 1).
	mass, err := gb.ReduceScalar(hq, gb.Plus[uint64]())
	if err != nil {
		t.Fatal(err)
	}
	if int64(mass) != he.Count() {
		t.Fatalf("mass %d != count %d", mass, he.Count())
	}
	if he.Stats().Cascades[0] == 0 {
		t.Fatal("hier engine never cascaded with tiny cuts")
	}
}

func TestHierD4MQueryMatchesMass(t *testing.T) {
	stream := testStream(t, 8, 200)
	e, err := NewHierD4M([]int{256})
	if err != nil {
		t.Fatal(err)
	}
	runEngine(t, e, stream)
	a, err := e.QueryAssoc()
	if err != nil {
		t.Fatal(err)
	}
	total, err := a.Total()
	if err != nil {
		t.Fatal(err)
	}
	if int64(total) != e.Count() {
		t.Fatalf("assoc mass %v != count %d", total, e.Count())
	}
}

func TestD4MKeyFixedWidthSorted(t *testing.T) {
	a := d4mKey('r', 5)
	b := d4mKey('r', 40)
	c := d4mKey('r', 12345678901234)
	if len(a) != 21 || len(b) != 21 || len(c) != 21 {
		t.Fatalf("widths %d/%d/%d", len(a), len(b), len(c))
	}
	// Lexicographic order must equal numeric order.
	if !(a < b && b < c) {
		t.Fatalf("key order broken: %q %q %q", a, b, c)
	}
	if a[0] != 'r' {
		t.Fatalf("prefix lost: %q", a)
	}
}

func TestEngineRelativeOrdering(t *testing.T) {
	// The qualitative Fig. 2 claim at single-process scale: hierarchical
	// GraphBLAS must ingest the same stream faster than hierarchical D4M.
	// (Coarse ordering check; the full sweep lives in the benchmark
	// harness.)
	if testing.Short() {
		t.Skip("ordering check is timing-based")
	}
	stream := testStream(t, 25, 2000)
	timeOf := func(factory Factory) float64 {
		best := 0.0
		for rep := 0; rep < 3; rep++ { // rep 0 is warmup; keep the min of the rest
			e, err := factory()
			if err != nil {
				t.Fatal(err)
			}
			start := nowSeconds()
			runEngine(t, e, stream)
			elapsed := nowSeconds() - start
			if rep == 0 {
				continue
			}
			if best == 0 || elapsed < best {
				best = elapsed
			}
		}
		return best
	}
	reg := Registry(testDim)
	tHier := timeOf(reg["hier-graphblas"])
	tD4M := timeOf(reg["hier-d4m"])
	if !(tHier < tD4M) {
		t.Errorf("hier-graphblas (%.4fs) not faster than hier-d4m (%.4fs)", tHier, tD4M)
	}
}
