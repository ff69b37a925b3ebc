package cluster

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"runtime"
	"sync"
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
// at every count of the shard sweep too.
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

	// The shard sweep: one instance per run, the same total at each count.
	sweep, err := ShardSweep(1<<20, stream, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 2 {
		t.Fatalf("shard sweep ran %d counts, want 2", len(sweep))
	}
	for _, r := range sweep {
		if r.Updates != int64(stream.TotalEdges) || r.Processes != 1 {
			t.Fatalf("shard sweep run: %+v", r)
		}
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

func TestModelAggregateScalesWithServers(t *testing.T) {
	m := Model{
		Solo:           RunResult{Processes: 1, Updates: 1e6, Seconds: 1},
		Contended:      RunResult{Processes: 2, Updates: 1.6e6, Seconds: 1},
		ProcsPerServer: 28,
	}
	if m.Contended.PerProcess() != 0.8e6 || m.Efficiency() != 0.8 {
		t.Fatalf("per-process rate %v, efficiency %v", m.Contended.PerProcess(), m.Efficiency())
	}
	// Exactly servers × procs per server × the contended per-process rate.
	for _, n := range []int{1, 10, 1100} {
		if got, want := m.Aggregate(n), float64(n)*28*0.8e6; got != want {
			t.Fatalf("Aggregate(%d) = %v, want %v", n, got, want)
		}
	}
	if m.Aggregate(0) != 0 {
		t.Fatal("Aggregate(0) != 0")
	}
}

// recorder is an Engine that fingerprints every batch it is given.
type recorder struct {
	seen  map[uint64]int
	count int64
}

func (r *recorder) Name() string { return "recorder" }
func (r *recorder) Ingest(edges []baselines.Edge) error {
	h := fnv.New64a()
	for _, e := range edges {
		binary.Write(h, binary.LittleEndian, [2]uint64{e.Row, e.Col})
	}
	r.seen[h.Sum64()]++
	r.count += int64(len(edges))
	return nil
}
func (r *recorder) Flush() error { return nil }
func (r *recorder) Count() int64 { return r.count }
func (r *recorder) Close() error { return nil }

// TestCalibrateIngestsEachSetOnce: every process of every calibration run
// ingests its N-set stream exactly once — N × set-size updates, no set
// twice — so the measured rate is the growing matrix's, not a re-timed
// pool's.
func TestCalibrateIngestsEachSetOnce(t *testing.T) {
	stream := testStream()
	var mu sync.Mutex
	var recs []*recorder
	factory := func() (baselines.Engine, error) {
		r := &recorder{seen: map[uint64]int{}}
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
		return r, nil
	}
	if _, err := Calibrate(factory, stream, 0); err != nil {
		t.Fatal(err)
	}
	if want := 1 + runtime.GOMAXPROCS(0); len(recs) != want {
		t.Errorf("calibration ran %d processes, want %d: one alone, then GOMAXPROCS at once", len(recs), want)
	}
	for p, r := range recs {
		if r.count != int64(stream.TotalEdges) {
			t.Errorf("process %d ingested %d updates, want %d", p, r.count, stream.TotalEdges)
		}
		for fp, n := range r.seen {
			if n > 1 {
				t.Errorf("process %d ingested set %x %d times", p, fp, n)
			}
		}
	}
}

func TestFig2ProducesOrderedSeries(t *testing.T) {
	cfg := Fig2Config{
		Stream:         testStream(),
		ServerCounts:   []int{1, 10, 100},
		ProcsPerServer: 28,
		Engines:        []string{"hier-graphblas", "hier-d4m"},
		Dim:            1 << 22,
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
	// "accumulo" is a Fig. 2 system this repository does not run;
	// "sharded-graphblas" runs, but as one instance per node, not per process.
	for _, name := range []string{"nosuch", "accumulo", "sharded-graphblas"} {
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
