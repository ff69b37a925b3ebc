package cluster

import (
	"errors"
	"testing"

	"hhgb/internal/gb"
	"hhgb/internal/powerlaw"
	"hhgb/internal/repro/baselines"
)

func testStream() powerlaw.StreamSpec {
	return powerlaw.StreamSpec{TotalEdges: 40_000, SetSize: 2_000, Scale: 20, Seed: 11}
}

func hierFactory() baselines.Factory {
	return func() (baselines.Engine, error) {
		return baselines.NewHierGraphBLAS(1<<20, nil)
	}
}

func TestRunLocalConservesUpdates(t *testing.T) {
	stream := testStream()
	for _, procs := range []int{1, 2, 3, 7} {
		r, err := RunLocal(hierFactory(), stream, procs)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if r.Updates != int64(stream.TotalEdges) {
			t.Fatalf("procs=%d: updates = %d, want %d", procs, r.Updates, stream.TotalEdges)
		}
		if r.Processes != procs {
			t.Fatalf("procs recorded = %d", r.Processes)
		}
		if r.Rate() <= 0 {
			t.Fatalf("rate = %v", r.Rate())
		}
		if r.Engine != "hier-graphblas" {
			t.Fatalf("engine = %q", r.Engine)
		}
	}
}

// TestRunLocalShardedEngine drives the cluster harness with the concurrent
// sharded frontend: one internally-parallel instance per "process". The
// update count must be conserved through the hash-partitioned async path,
// and the calibrated model must compose per server.
func TestRunLocalShardedEngine(t *testing.T) {
	stream := testStream()
	factory := func() (baselines.Engine, error) {
		return baselines.NewShardedGraphBLAS(1<<20, nil, 2)
	}
	r, err := RunLocal(factory, stream, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Updates != int64(stream.TotalEdges) {
		t.Fatalf("updates = %d, want %d", r.Updates, stream.TotalEdges)
	}
	if r.Engine != "sharded-graphblas" {
		t.Fatalf("engine = %q", r.Engine)
	}

	m, err := Calibrate("sharded-graphblas", factory, stream, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Class != baselines.ScalePerServer {
		t.Fatalf("sharded model class = %v, want ScalePerServer", m.Class)
	}
	if m.PerProcessRate <= 0 {
		t.Fatalf("per-process rate = %v", m.PerProcessRate)
	}
	// Per-server composition: 10 servers ≈ 10x one server (x efficiency),
	// with no procs-per-server multiplier.
	one, ten := m.Aggregate(1), m.Aggregate(10)
	if ten <= 5*one || ten > 10*one {
		t.Fatalf("Aggregate(10) = %v vs Aggregate(1) = %v; want sublinear 10x", ten, one)
	}
}

func TestRunLocalValidation(t *testing.T) {
	if _, err := RunLocal(hierFactory(), testStream(), 0); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("zero procs: %v", err)
	}
	bad := powerlaw.StreamSpec{TotalEdges: 10, SetSize: 3, Scale: 10}
	if _, err := RunLocal(hierFactory(), bad, 1); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("bad stream: %v", err)
	}
}

func TestRunLocalMoreProcsThanSets(t *testing.T) {
	stream := powerlaw.StreamSpec{TotalEdges: 4000, SetSize: 2000, Scale: 16, Seed: 3}
	r, err := RunLocal(hierFactory(), stream, 8) // only 2 sets for 8 procs
	if err != nil {
		t.Fatal(err)
	}
	if r.Updates != 4000 {
		t.Fatalf("updates = %d", r.Updates)
	}
}

func TestCalibrateTimedRunsAtLeastMinSeconds(t *testing.T) {
	rate, err := CalibrateTimed(hierFactory(), testStream(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if rate.Seconds < 0.05 {
		t.Fatalf("ran only %.3fs", rate.Seconds)
	}
	if rate.PerSecond() <= 0 {
		t.Fatalf("rate = %v", rate.PerSecond())
	}
}

func TestModelAggregateScalesWithServers(t *testing.T) {
	m := Model{PerProcessRate: 1e6, ProcsPerServer: 28, Efficiency: DefaultEfficiency}
	one := m.Aggregate(1)
	if one != 28e6 {
		t.Fatalf("Aggregate(1) = %v", one)
	}
	big := m.Aggregate(1100)
	if big <= one {
		t.Fatal("no scaling")
	}
	// Sublinear but near-linear: within [60%, 100%] of perfect scaling.
	perfect := one * 1100
	if big < 0.6*perfect || big > perfect {
		t.Fatalf("Aggregate(1100) = %v, perfect = %v", big, perfect)
	}
	if m.Aggregate(0) != 0 {
		t.Fatal("Aggregate(0) != 0")
	}
	// Nil efficiency means perfectly linear.
	lin := Model{PerProcessRate: 1e6, ProcsPerServer: 1}
	if lin.Aggregate(10) != 1e7 {
		t.Fatalf("linear aggregate = %v", lin.Aggregate(10))
	}
}

func TestDefaultEfficiencyBounds(t *testing.T) {
	if DefaultEfficiency(1) != 1 {
		t.Fatal("eff(1) != 1")
	}
	prev := 1.0
	for _, n := range []int{2, 10, 100, 1100} {
		e := DefaultEfficiency(n)
		if e <= 0 || e > 1 {
			t.Fatalf("eff(%d) = %v out of (0,1]", n, e)
		}
		if e > prev {
			t.Fatalf("efficiency not monotone at %d", n)
		}
		prev = e
	}
}

func TestFig2ProducesOrderedSeries(t *testing.T) {
	cfg := Fig2Config{
		Stream:             testStream(),
		ServerCounts:       []int{1, 10, 100},
		ProcsPerServer:     28,
		CalibrationSeconds: 0.02,
		Engines:            []string{"hier-graphblas", "hier-d4m"},
		Dim:                1 << 22,
	}
	series, models, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || len(models) != 2 {
		t.Fatalf("series/models = %d/%d", len(series), len(models))
	}
	for i, s := range series {
		if len(s.Points) != 3 {
			t.Fatalf("series %d has %d points", i, len(s.Points))
		}
		if s.Points[0].Y >= s.Points[2].Y {
			t.Fatalf("series %s does not scale: %v", s.Name, s.Points)
		}
	}
	// The paper's headline ordering: hierarchical GraphBLAS above
	// hierarchical D4M, its prior system, at every scale.
	for k := range series[0].Points {
		if series[0].Points[k].Y <= series[1].Points[k].Y {
			t.Fatalf("hier-graphblas (%v) not above hier-d4m (%v) at x=%v",
				series[0].Points[k].Y, series[1].Points[k].Y, series[0].Points[k].X)
		}
	}
}

func TestFig2UnknownEngine(t *testing.T) {
	// "accumulo" is a Fig. 2 system this repository does not run.
	for _, name := range []string{"nosuch", "accumulo"} {
		cfg := Fig2Config{Stream: testStream(), Engines: []string{name}}
		if _, _, err := Fig2(cfg); !errors.Is(err, gb.ErrInvalidValue) {
			t.Fatalf("%s: got %v", name, err)
		}
	}
}

func TestWeakScalingShape(t *testing.T) {
	// Weak scaling: each process streams its OWN full workload copy, so
	// total updates grow with the process count.
	results, err := WeakScaling(hierFactory(), testStream(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 2 {
		t.Fatalf("results = %d", len(results))
	}
	wantProcs := []int{1, 2, 4}
	for i, r := range results {
		if r.Processes != wantProcs[i] {
			t.Fatalf("procs sequence %v at %d", r.Processes, i)
		}
		if r.Updates != int64(testStream().TotalEdges)*int64(r.Processes) {
			t.Fatalf("weak scaling: %d procs did %d updates, want %d",
				r.Processes, r.Updates, int64(testStream().TotalEdges)*int64(r.Processes))
		}
	}
}

func TestStrongScalingShape(t *testing.T) {
	// Strong scaling: the total workload is fixed and split.
	results, err := StrongScaling(hierFactory(), testStream(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Updates != int64(testStream().TotalEdges) {
			t.Fatalf("strong scaling changed total work: %d", r.Updates)
		}
	}
}

func TestWeakScalingNonPowerOfTwoMax(t *testing.T) {
	results, err := WeakScaling(hierFactory(), testStream(), 3)
	if err != nil {
		t.Fatal(err)
	}
	last := results[len(results)-1]
	if last.Processes != 3 {
		t.Fatalf("last procs = %d, want 3", last.Processes)
	}
}

func TestRunLocalWeakDistinctGraphs(t *testing.T) {
	// Per-process seeds must differ: two processes must not ingest
	// identical graphs. Compare resulting matrices via separate runs.
	stream := powerlaw.StreamSpec{TotalEdges: 2000, SetSize: 1000, Scale: 18, Seed: 5}
	r, err := RunLocalWeak(hierFactory(), stream, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Updates != 4000 {
		t.Fatalf("updates = %d, want 4000", r.Updates)
	}
	if _, err := RunLocalWeak(hierFactory(), stream, 0); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("zero procs: %v", err)
	}
}

func TestDefaultServerCountsEndAt1100(t *testing.T) {
	counts := DefaultServerCounts()
	if counts[0] != 1 || counts[len(counts)-1] != 1100 {
		t.Fatalf("counts = %v", counts)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] <= counts[i-1] {
			t.Fatalf("not increasing: %v", counts)
		}
	}
}
