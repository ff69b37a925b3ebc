package hhgb

import (
	"bytes"
	"sync"
	"testing"

	"hhgb/internal/gb"
	"hhgb/internal/hier"
	"hhgb/internal/powerlaw"
	"hhgb/internal/repro/baselines"
	"hhgb/internal/repro/cluster"
	"hhgb/internal/stats"
)

// TestIntegrationStreamingPipeline exercises the full paper pipeline in
// one pass: power-law generation → parallel shared-nothing ingest into
// hierarchical matrices → merge → network statistics → checkpoint/restore,
// verifying conservation at every stage.
func TestIntegrationStreamingPipeline(t *testing.T) {
	const procs = 3
	stream := powerlaw.StreamSpec{TotalEdges: 60_000, SetSize: 10_000, Scale: 20, Seed: 77}
	if err := stream.Validate(); err != nil {
		t.Fatal(err)
	}

	// Stage 1: parallel ingest, one hierarchical matrix per process.
	matrices := make([]*hier.Matrix[uint64], procs)
	var wg sync.WaitGroup
	errs := make([]error, procs)
	for p := 0; p < procs; p++ {
		matrices[p] = hier.MustNew[uint64](1<<20, 1<<20, hier.Config{Cuts: hier.GeometricCuts(3, 1<<10, 16)})
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for set := p; set < stream.Sets(); set += procs {
				edges, err := stream.GenerateSet(set)
				if err != nil {
					errs[p] = err
					return
				}
				rows, cols, vals := powerlaw.ToTuples(edges)
				if err := matrices[p].Update(rows, cols, vals); err != nil {
					errs[p] = err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", p, err)
		}
	}

	// Stage 2: merge the per-process matrices (the analysis-side union).
	var parts []*gb.Matrix[uint64]
	for _, h := range matrices {
		q, err := h.Query()
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, q)
	}
	total, err := gb.Sum(parts...)
	if err != nil {
		t.Fatal(err)
	}

	// Conservation: value mass equals the generated update count.
	mass, err := gb.ReduceScalar(total, gb.Plus[uint64]())
	if err != nil {
		t.Fatal(err)
	}
	if mass != uint64(stream.TotalEdges) {
		t.Fatalf("mass = %d, want %d", mass, stream.TotalEdges)
	}

	// Stage 3: statistics agree between the vector and scalar paths.
	sum, err := stats.Summarize(total)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalPackets != mass {
		t.Fatalf("summary packets %d != mass %d", sum.TotalPackets, mass)
	}
	ot, err := stats.OutTraffic(total)
	if err != nil {
		t.Fatal(err)
	}
	vecMass, err := gb.VecReduce(ot, gb.Plus[uint64]())
	if err != nil {
		t.Fatal(err)
	}
	if vecMass != mass {
		t.Fatalf("row-sum mass %d != %d", vecMass, mass)
	}
	top, err := stats.TopK(ot, 5)
	if err != nil || len(top) != 5 {
		t.Fatalf("topk: %v, %v", top, err)
	}
	// R-MAT skew: the single hottest source should carry far more than
	// the mean source's traffic.
	meanPer := float64(mass) / float64(sum.Sources)
	if float64(top[0].Value) < 5*meanPer {
		t.Fatalf("no power-law skew: top %d vs mean %.1f", top[0].Value, meanPer)
	}

	// Stage 4: checkpoint a live per-process matrix and restore it; the
	// restored instance must agree and accept further updates.
	var buf bytes.Buffer
	if err := hier.Encode(&buf, matrices[0], gb.Uint64Codec[uint64]()); err != nil {
		t.Fatal(err)
	}
	restored, err := hier.Decode[uint64](&buf, gb.Uint64Codec[uint64]())
	if err != nil {
		t.Fatal(err)
	}
	q1, _ := matrices[0].Query()
	q2, _ := restored.Query()
	if !gb.Equal(q1, q2) {
		t.Fatal("checkpoint round trip diverged")
	}
}

// TestIntegrationEnginesAgreeOnStream verifies that the GraphBLAS-backed
// Fig. 2 engines and the D4M engine all conserve the same stream, and
// that the GraphBLAS engines produce identical matrices.
func TestIntegrationEnginesAgreeOnStream(t *testing.T) {
	stream := powerlaw.StreamSpec{TotalEdges: 20_000, SetSize: 5_000, Scale: 18, Seed: 9}
	hierEng, err := baselines.NewHierGraphBLAS(1<<18, []int{1 << 8, 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	flatEng, err := baselines.NewFlatGraphBLAS(1 << 18)
	if err != nil {
		t.Fatal(err)
	}
	d4mEng, err := baselines.NewHierD4M([]int{1 << 8})
	if err != nil {
		t.Fatal(err)
	}
	for set := 0; set < stream.Sets(); set++ {
		edges, err := stream.GenerateSet(set)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []baselines.Engine{hierEng, flatEng, d4mEng} {
			if err := e.Ingest(edges); err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
		}
	}
	hq, err := hierEng.Query()
	if err != nil {
		t.Fatal(err)
	}
	fq, err := flatEng.Query()
	if err != nil {
		t.Fatal(err)
	}
	if !gb.Equal(hq, fq) {
		t.Fatal("hier and flat engines diverged")
	}
	a, err := d4mEng.QueryAssoc()
	if err != nil {
		t.Fatal(err)
	}
	d4mMass, err := a.Total()
	if err != nil {
		t.Fatal(err)
	}
	gbMass, _ := gb.ReduceScalar(hq, gb.Plus[uint64]())
	if uint64(d4mMass) != gbMass {
		t.Fatalf("D4M mass %v != GraphBLAS mass %d", d4mMass, gbMass)
	}
}

// TestIntegrationFig2MiniSweep runs the actual Fig. 2 harness end to end
// on two engines at tiny scale and checks the headline ordering against
// hierarchical D4M, the paper's prior system, measured here.
func TestIntegrationFig2MiniSweep(t *testing.T) {
	series, models, err := cluster.Fig2(cluster.Fig2Config{
		Stream:             powerlaw.StreamSpec{TotalEdges: 20_000, SetSize: 2_000, Scale: 18, Seed: 2},
		ServerCounts:       []int{1, 100, 1100},
		CalibrationSeconds: 0.05,
		Engines:            []string{"hier-graphblas", "hier-d4m"},
		Dim:                1 << 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || len(models) != 2 {
		t.Fatalf("series/models: %d/%d", len(series), len(models))
	}
	at1100 := func(i int) float64 { return series[i].Points[2].Y }
	if !(at1100(0) > at1100(1)) {
		t.Fatalf("ordering at 1100 servers broken: hier-graphblas %v, hier-d4m %v", at1100(0), at1100(1))
	}
}
