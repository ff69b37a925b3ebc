// Benchmarks regenerating the paper's quantitative results for the engines
// this repository runs, one benchmark (family) per experiment: E1 the
// single-instance rate, E2–E3 the hierarchical GraphBLAS and hierarchical
// D4M single-process rates behind Fig. 2, E9 the cut sweep, E11 flat vs.
// hierarchical, E12 weak scaling and E13 sharded vs. flat. Rates are
// reported as the custom metric "updates/s".
//
// E4–E8 are absent on purpose. They were the Accumulo D4M, SciDB,
// Accumulo, CrateDB and Oracle/TPC-C curves of the paper's Fig. 2
// (https://arxiv.org/abs/2001.06935), which plots those systems' published
// rates; this repository does not run those systems, so it has no rate of
// its own to report for them.
//
// Run everything:   go test -bench=. -benchmem
// One experiment:   go test -bench=BenchmarkE1 -benchmem
package hhgb

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"hhgb/internal/gb"
	"hhgb/internal/hier"
	"hhgb/internal/powerlaw"
	"hhgb/internal/repro/baselines"
	"hhgb/internal/repro/cluster"
)

// benchBatch is the per-iteration batch size for the engine benchmarks:
// large enough to amortize batch overheads, small enough that the D4M
// engine finishes its minimum iterations quickly.
const benchBatch = 10_000

// prepBatches pre-generates n distinct batches so generation cost never
// pollutes an engine measurement; iterations cycle through them.
func prepBatches(b *testing.B, n int) [][]baselines.Edge {
	b.Helper()
	g, err := powerlaw.NewRMAT(26, 0xbe9c)
	if err != nil {
		b.Fatal(err)
	}
	out := make([][]baselines.Edge, n)
	for k := range out {
		out[k] = g.Edges(benchBatch)
	}
	return out
}

// benchEngine streams pre-generated batches through a fresh engine and
// reports updates/s.
func benchEngine(b *testing.B, factory baselines.Factory) {
	b.Helper()
	batches := prepBatches(b, 64)
	e, err := factory()
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Ingest(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*benchBatch/b.Elapsed().Seconds(), "updates/s")
}

// BenchmarkE1_SingleInstance is experiment E1: the single-instance update
// rate of the hierarchical hypersparse GraphBLAS matrix with the paper's
// batch size of 100,000 and the default cuts. The paper reports
// > 1,000,000 updates/s; a rate below that fails the benchmark, so even the
// one-iteration -benchtime=1x smoke checks the headline.
func BenchmarkE1_SingleInstance(b *testing.B) {
	const batch = 100_000
	g, err := powerlaw.NewRMAT(32, 1)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-generate a pool of full-size batches to cycle through.
	const pool = 16
	rows := make([][]gb.Index, pool)
	cols := make([][]gb.Index, pool)
	vals := make([]uint64, batch)
	for k := range vals {
		vals[k] = 1
	}
	for p := 0; p < pool; p++ {
		rows[p] = make([]gb.Index, batch)
		cols[p] = make([]gb.Index, batch)
		if err := g.Fill(rows[p], cols[p]); err != nil {
			b.Fatal(err)
		}
	}
	h, err := hier.New[uint64](1<<32, 1<<32, hier.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := i % pool
		if err := h.Update(rows[p], cols[p], vals); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rate := float64(b.N) * batch / b.Elapsed().Seconds()
	b.ReportMetric(rate, "updates/s")
	if rate < 1_000_000 {
		b.Fatalf("single-instance rate %.0f updates/s is below the paper's 1,000,000", rate)
	}
}

// BenchmarkE2_Fig2_HierGraphBLAS and BenchmarkE3_Fig2_HierD4M are
// experiments E2–E3: the single-process ingest rates that calibrate the
// measured Fig. 2 curves. The full sweep (aggregate rate vs. servers) is
// `hhgb-repro fig2`.

func BenchmarkE2_Fig2_HierGraphBLAS(b *testing.B) {
	benchEngine(b, func() (baselines.Engine, error) { return baselines.NewHierGraphBLAS(1<<32, nil) })
}

func BenchmarkE3_Fig2_HierD4M(b *testing.B) {
	benchEngine(b, func() (baselines.Engine, error) { return baselines.NewHierD4M(nil) })
}

// BenchmarkE9_CutSweep is experiment E9: update rate across the cut tuning
// family (base cut, level count), the paper's tunability claim. The cut
// ratio is swept with the level count and base cut in the lib_ingest shape
// by BenchmarkCascadeCuts (internal/shard).
func BenchmarkE9_CutSweep(b *testing.B) {
	for _, base := range []int{1 << 10, 1 << 14, 1 << 18} {
		for _, levels := range []int{2, 4, 6} {
			name := fmt.Sprintf("levels=%d/c1=%d", levels, base)
			cuts := hier.GeometricCuts(levels, base, 16)
			b.Run(name, func(b *testing.B) {
				benchEngine(b, func() (baselines.Engine, error) {
					return baselines.NewHierGraphBLAS(1<<32, cuts)
				})
			})
		}
	}
}

// BenchmarkE11_FlatVsHier is experiment E11: the same stream through the
// hierarchical matrix and through a flat hypersparse matrix that
// materializes every batch — the ablation isolating the hierarchy's
// contribution on real hardware.
func BenchmarkE11_FlatVsHier(b *testing.B) {
	b.Run("hier", func(b *testing.B) {
		benchEngine(b, func() (baselines.Engine, error) { return baselines.NewHierGraphBLAS(1<<32, nil) })
	})
	b.Run("flat", func(b *testing.B) {
		benchEngine(b, func() (baselines.Engine, error) { return baselines.NewFlatGraphBLAS(1 << 32) })
	})
}

// BenchmarkE13_ShardedVsFlat compares the concurrent sharded ingest
// frontend against the flat (single-cascade, single-goroutine) path on the
// same pre-generated stream. The flat case is the E1 configuration; the
// sharded cases hash-partition one logical matrix across S cascades and
// feed it from GOMAXPROCS producer goroutines — "sharded-N" through the
// pooled Update path, "append-N" through per-producer Appenders (each
// parallel worker owns its shard buffers, the zero-contention fast path).
// Timing includes the final drain (Close), so queued or buffered batches
// cannot inflate the rate.
//
// The >= 2x speedup expectation holds only where the parallelism exists
// to pay for it: on runtime.NumCPU() >= 4 hosts the shards=4 (and higher)
// rows are asserted to beat the flat rate 2x (on measured runs — the CI
// -benchtime=1x smoke is below the measurement floor and skips the
// check); on smaller hosts the ratio is logged instead, since sharding
// there can only win what producer/consumer pipelining buys (~1.1-1.4x
// on the 1-core dev container).
func BenchmarkE13_ShardedVsFlat(b *testing.B) {
	const batch = 10_000
	// e13MinMeasured: below this elapsed time a ratio is noise, not a
	// measurement (the -benchtime=1x CI smoke lands here).
	const e13MinMeasured = 200 * time.Millisecond
	var flatRate float64
	prep := func(b *testing.B, seed uint64) ([][]gb.Index, [][]gb.Index, []uint64) {
		b.Helper()
		g, err := powerlaw.NewRMAT(32, seed)
		if err != nil {
			b.Fatal(err)
		}
		const pool = 16
		rows := make([][]gb.Index, pool)
		cols := make([][]gb.Index, pool)
		vals := make([]uint64, batch)
		for k := range vals {
			vals[k] = 1
		}
		for p := 0; p < pool; p++ {
			rows[p] = make([]gb.Index, batch)
			cols[p] = make([]gb.Index, batch)
			if err := g.Fill(rows[p], cols[p]); err != nil {
				b.Fatal(err)
			}
		}
		return rows, cols, vals
	}

	b.Run("flat", func(b *testing.B) {
		rows, cols, vals := prep(b, 0xe13)
		h, err := hier.New[uint64](1<<32, 1<<32, hier.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := h.Update(rows[i%len(rows)], cols[i%len(cols)], vals); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := h.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rate := float64(b.N) * batch / b.Elapsed().Seconds()
		if b.Elapsed() >= e13MinMeasured {
			flatRate = rate
		}
		b.ReportMetric(rate, "updates/s")
	})

	shardedCase := func(shards int, useAppenders bool) func(b *testing.B) {
		return func(b *testing.B) {
			rows, cols, vals := prep(b, 0xe13)
			sm, err := NewSharded(1<<32, WithShards(shards))
			if err != nil {
				b.Fatal(err)
			}
			uRows := make([][]uint64, len(rows))
			uCols := make([][]uint64, len(cols))
			for p := range rows {
				uRows[p] = make([]uint64, batch)
				uCols[p] = make([]uint64, batch)
				for k := 0; k < batch; k++ {
					uRows[p][k] = uint64(rows[p][k])
					uCols[p][k] = uint64(cols[p][k])
				}
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				push := sm.UpdateWeighted
				if useAppenders {
					a, err := sm.NewAppender()
					if err != nil {
						b.Error(err)
						return
					}
					push = a.AppendWeighted
				}
				k := 0
				for pb.Next() {
					p := k % len(uRows)
					if err := push(uRows[p], uCols[p], vals); err != nil {
						b.Error(err)
						return
					}
					k++
				}
			})
			if err := sm.Close(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			rate := float64(b.N) * batch / b.Elapsed().Seconds()
			b.ReportMetric(rate, "updates/s")
			if flatRate > 0 && b.Elapsed() >= e13MinMeasured {
				ratio := rate / flatRate
				switch {
				case shards >= 4 && runtime.NumCPU() >= 4 && ratio < 2:
					b.Errorf("sharded-%d sustained %.2fx the flat rate on a %d-core host; want >= 2x",
						shards, ratio, runtime.NumCPU())
				case runtime.NumCPU() < 4:
					b.Logf("%d-core host: %.2fx vs flat is pipelining-only (>= 2x needs >= 4 cores)",
						runtime.NumCPU(), ratio)
				default:
					b.Logf("%.2fx vs flat", ratio)
				}
			}
		}
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("sharded-%d", shards), shardedCase(shards, false))
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("append-%d", shards), shardedCase(shards, true))
	}
}

// BenchmarkE12_WeakScaling is experiment E12: aggregate rate of P
// shared-nothing processes on local cores, each streaming its own graphs
// (the paper's Section III methodology at laptop scale). Each process
// streams the paper's sets — 100,000 entries at R-MAT scale 32 over 2³²,
// the stream BenchmarkE1_SingleInstance, `hhgb-repro scaling` and bench/
// use — into the hier-graphblas engine.
func BenchmarkE12_WeakScaling(b *testing.B) {
	stream := powerlaw.StreamSpec{TotalEdges: 400_000, SetSize: 100_000, Scale: 32, Seed: 3}
	factory := func() (baselines.Engine, error) { return baselines.NewHierGraphBLAS(1<<32, nil) }
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			var total int64
			var seconds float64
			for i := 0; i < b.N; i++ {
				r, err := cluster.RunLocalWeak(factory, stream, procs)
				if err != nil {
					b.Fatal(err)
				}
				total += r.Updates
				seconds += r.Seconds
			}
			b.ReportMetric(float64(total)/seconds, "updates/s")
		})
	}
}
