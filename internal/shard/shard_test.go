package shard

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"hhgb/internal/gb"
	"hhgb/internal/hier"
	"hhgb/internal/powerlaw"
)

const testDim gb.Index = 1 << 24

func testConfig(shards int) Config {
	return Config{
		Shards: shards,
		Hier:   hier.Config{Cuts: hier.GeometricCuts(3, 256, 8)},
	}
}

func genBatches(t testing.TB, n, size int, seed uint64) (rows, cols [][]gb.Index, vals [][]uint64) {
	t.Helper()
	g, err := powerlaw.NewRMAT(24, seed)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		r := make([]gb.Index, size)
		c := make([]gb.Index, size)
		v := make([]uint64, size)
		if err := g.Fill(r, c); err != nil {
			t.Fatal(err)
		}
		for i := range v {
			v[i] = 1 + uint64(i%3)
		}
		rows = append(rows, r)
		cols = append(cols, c)
		vals = append(vals, v)
	}
	return rows, cols, vals
}

// TestGroupMatchesFlat is the correctness keystone: the merged query of a
// sharded group must be bit-identical to a single unsharded cascade fed the
// same stream (linearity of GraphBLAS addition).
func TestGroupMatchesFlat(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rows, cols, vals := genBatches(t, 20, 500, 7)
			g, err := NewGroup[uint64](testDim, testDim, testConfig(shards))
			if err != nil {
				t.Fatal(err)
			}
			flat := hier.MustNew[uint64](testDim, testDim, testConfig(shards).Hier)
			for k := range rows {
				if err := g.Update(rows[k], cols[k], vals[k]); err != nil {
					t.Fatal(err)
				}
				if err := flat.Update(rows[k], cols[k], vals[k]); err != nil {
					t.Fatal(err)
				}
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := g.Query()
			if err != nil {
				t.Fatal(err)
			}
			want, err := flat.Query()
			if err != nil {
				t.Fatal(err)
			}
			if !gb.Equal(got, want) {
				t.Fatalf("sharded query (nvals %d) differs from flat query (nvals %d)", got.NVals(), want.NVals())
			}
		})
	}
}

// TestConcurrentProducers hammers one group from many goroutines; with
// -race this doubles as the data-race proof for the ingest path.
func TestConcurrentProducers(t *testing.T) {
	const producers = 8
	const batches = 12
	const batchSize = 400
	g, err := NewGroup[uint64](testDim, testDim, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rows, cols, vals := genBatches(t, batches, batchSize, uint64(100+p))
			for k := range rows {
				if err := g.Update(rows[k], cols[k], vals[k]); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	// Interleave analysis queries with ingest to exercise the barrier.
	for q := 0; q < 3; q++ {
		if _, err := g.NVals(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if want := int64(producers * batches * batchSize); st.Updates != want {
		t.Fatalf("merged Updates = %d, want %d", st.Updates, want)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseLifecycle(t *testing.T) {
	g, err := NewGroup[uint64](testDim, testDim, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Update([]gb.Index{1, 2}, []gb.Index{3, 4}, []uint64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	// Update after Close fails fast.
	if err := g.Update([]gb.Index{1}, []gb.Index{1}, []uint64{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Update after Close = %v, want ErrClosed", err)
	}
	// Queries keep working on the drained state.
	n, err := g.NVals()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("NVals after Close = %d, want 2", n)
	}
	if st := g.Stats(); st.Updates != 2 {
		t.Fatalf("Stats after Close: Updates = %d, want 2", st.Updates)
	}
	if lv := g.LevelNVals(); len(lv) != g.Levels() {
		t.Fatalf("LevelNVals length %d, want %d", len(lv), g.Levels())
	}
}

// TestConcurrentQueriesAfterClose is the regression test for the
// post-Close read path: with the workers gone, queries touch the shard
// matrices directly and must be serialized by the group (hier.Matrix
// queries mutate internal counters). Run under -race.
func TestConcurrentQueriesAfterClose(t *testing.T) {
	g, err := NewGroup[uint64](testDim, testDim, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	rows, cols, vals := genBatches(t, 4, 500, 21)
	for k := range rows {
		if err := g.Update(rows[k], cols[k], vals[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.Query(); err != nil {
				t.Error(err)
			}
			if _, err := g.NVals(); err != nil {
				t.Error(err)
			}
			g.Stats()
			g.LevelNVals()
		}()
	}
	wg.Wait()
}

// TestQueryBatchAtomicity checks that a query concurrent with ingest never
// observes a torn batch: every Update carries a batch whose weights sum to
// a fixed amount, so any barrier-consistent snapshot has a total mass
// divisible by that amount — even while entries sit in producer-local
// appender buffers (the barrier drains them atomically). The concurrent
// probes use the pushdown Total; the final state is cross-checked against
// a full materialization.
func TestQueryBatchAtomicity(t *testing.T) {
	const batchMass = 64 // weights per batch sum to this
	const producers = 3
	const batchesPerProducer = 300
	g, err := NewGroup[uint64](testDim, testDim, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := uint64(p + 1)
			for i := 0; i < batchesPerProducer; i++ {
				rows := make([]gb.Index, batchMass)
				cols := make([]gb.Index, batchMass)
				vals := make([]uint64, batchMass)
				for k := range rows {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					rows[k] = gb.Index(rng % (1 << 20))
					cols[k] = gb.Index((rng >> 20) % (1 << 20))
					vals[k] = 1
				}
				if err := g.Update(rows, cols, vals); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	for q := 0; q < 10; q++ {
		mass, err := g.Total()
		if err != nil {
			t.Fatal(err)
		}
		if mass%batchMass != 0 {
			t.Fatalf("query %d observed a torn batch: total mass %d not a multiple of %d", q, mass, batchMass)
		}
	}
	wg.Wait()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := g.Query()
	if err != nil {
		t.Fatal(err)
	}
	var mass uint64
	m.Iterate(func(i, j gb.Index, v uint64) bool {
		mass += v
		return true
	})
	if want := uint64(producers * batchesPerProducer * batchMass); mass != want {
		t.Fatalf("final mass %d, want %d", mass, want)
	}
}

func TestUpdateRejectsBadBatches(t *testing.T) {
	g, err := NewGroup[uint64](1<<10, 1<<10, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.Update([]gb.Index{1}, []gb.Index{2, 3}, []uint64{1}); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("mismatched lengths = %v, want ErrInvalidValue", err)
	}
	if err := g.Update([]gb.Index{1 << 10}, []gb.Index{0}, []uint64{1}); !errors.Is(err, gb.ErrIndexOutOfBounds) {
		t.Fatalf("out of bounds = %v, want ErrIndexOutOfBounds", err)
	}
	// A rejected batch must not be partially ingested.
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.Updates != 0 {
		t.Fatalf("Updates after rejected batches = %d, want 0", st.Updates)
	}
}

func TestInputSlicesNotRetained(t *testing.T) {
	g, err := NewGroup[uint64](testDim, testDim, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	rows := []gb.Index{10, 20, 30}
	cols := []gb.Index{1, 2, 3}
	vals := []uint64{5, 5, 5}
	if err := g.Update(rows, cols, vals); err != nil {
		t.Fatal(err)
	}
	// Clobber the caller-owned slices immediately; the async ingest must
	// have copied them.
	for i := range rows {
		rows[i], cols[i], vals[i] = 999, 999, 999
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	q, err := g.Query()
	if err != nil {
		t.Fatal(err)
	}
	v, err := q.ExtractElement(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Fatalf("entry (10,1) = %d, want 5", v)
	}
}

func TestConfigDefaults(t *testing.T) {
	g, err := NewGroup[uint64](testDim, testDim, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.NumShards() < 1 {
		t.Fatalf("default shards = %d, want >= 1", g.NumShards())
	}
	if g.Levels() != 1 {
		t.Fatalf("nil cuts should yield a single flat level, got %d", g.Levels())
	}
	if g.NRows() != testDim || g.NCols() != testDim {
		t.Fatalf("dims = %dx%d, want %dx%d", g.NRows(), g.NCols(), testDim, testDim)
	}
}

func TestShardOfBalance(t *testing.T) {
	g, err := NewGroup[uint64](testDim, testDim, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// A single hot source row (a supernode) must still spread across
	// shards because the hash mixes the column too.
	counts := make([]int, g.NumShards())
	for c := 0; c < 4096; c++ {
		counts[g.shardOf(42, gb.Index(c))]++
	}
	for sh, n := range counts {
		if n < 512 || n > 1536 {
			t.Fatalf("shard %d got %d of 4096 single-row entries; want roughly balanced", sh, n)
		}
	}
}

// BenchmarkGroupIngest measures aggregate ingest throughput at several
// shard counts with GOMAXPROCS concurrent producers. On a >= 4-core
// machine the multi-shard rows show near-linear speedup over shards=1.
func BenchmarkGroupIngest(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			const batchSize = 10_000
			rows, cols, vals := genBatches(b, 16, batchSize, 0xbe9c)
			g, err := NewGroup[uint64](testDim, testDim, Config{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				k := 0
				for pb.Next() {
					if err := g.Update(rows[k%len(rows)], cols[k%len(cols)], vals[k%len(vals)]); err != nil {
						b.Error(err)
						return
					}
					k++
				}
			})
			if err := g.Close(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*batchSize/b.Elapsed().Seconds(), "updates/s")
		})
	}
}

// BenchmarkCascadeCuts sweeps the cascade geometry — the paper's tuning
// knob — in the shape of the benchmark's lib_ingest workload: two shards,
// two producers with one Appender each, 8 M scale-32 R-MAT entries in
// 100,000-entry sets into a fresh group per iteration, timed from the
// group's creation to the return of Flush. The default geometry comes
// first.
func BenchmarkCascadeCuts(b *testing.B) {
	const sets, setSize = 80, 100_000
	spec := powerlaw.StreamSpec{TotalEdges: sets * setSize, SetSize: setSize, Scale: 32, Seed: 0xc075}
	rows, cols := make([]gb.Index, sets*setSize), make([]gb.Index, sets*setSize)
	for k := 0; k < sets; k++ {
		lo, hi := k*setSize, (k+1)*setSize
		if err := spec.FillSet(k, rows[lo:hi], cols[lo:hi]); err != nil {
			b.Fatal(err)
		}
	}
	ones := make([]uint64, setSize)
	for i := range ones {
		ones[i] = 1
	}
	ingest := func(b *testing.B, cuts []int) *Group[uint64] {
		g, err := NewGroup[uint64](1<<32, 1<<32, Config{Shards: 2, Hier: hier.Config{Cuts: cuts}})
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for p := range errs {
			a, err := g.NewAppender()
			if err != nil {
				b.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := p; k < sets && errs[p] == nil; k += 2 {
					lo, hi := k*setSize, (k+1)*setSize
					errs[p] = a.Append(rows[lo:hi], cols[lo:hi], ones)
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(append(errs, g.Flush())...); err != nil {
			b.Fatal(err)
		}
		return g
	}
	// An untimed pass first: otherwise whichever geometry runs first also
	// pays for growing the heap.
	if err := ingest(b, hier.DefaultConfig().Cuts).Close(); err != nil {
		b.Fatal(err)
	}
	for _, geo := range []struct{ levels, base, ratio int }{
		{hier.DefaultLevels, hier.DefaultBaseCut, hier.DefaultCutRatio},
		{5, 16 << 10, 8},
		{6, 16 << 10, 4},
		{5, 32 << 10, 6},
		{4, 32 << 10, 12},
	} {
		name := fmt.Sprintf("levels=%d,c1=%dKi,ratio=%d", geo.levels, geo.base>>10, geo.ratio)
		b.Run(name, func(b *testing.B) {
			cuts := hier.GeometricCuts(geo.levels, geo.base, geo.ratio)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := ingest(b, cuts)
				b.StopTimer()
				if err := g.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.N)*sets*setSize/b.Elapsed().Seconds(), "entries/s")
		})
	}
}

// TestCloseReleasesIngestBuffers guards the memory of everything that
// keeps closed groups around (a windowed store's sealed windows and
// roll-up parents): a cascade retains its staging and growth slack for as
// long as it can ingest — through a mid-stream Flush — and Close ends that:
// nothing below the top level, the top within 1/8 of its entries.
func TestCloseReleasesIngestBuffers(t *testing.T) {
	g, err := NewGroup[uint64](testDim, testDim, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	rows, cols, vals := genBatches(t, 40, 1000, 5)
	for k := range rows[:20] {
		if err := g.Update(rows[k], cols[k], vals[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	if stored, staging := g.LevelCaps(); staging[0] == 0 || stored[0] == 0 {
		t.Fatalf("mid-stream Flush released level 1: stored %v staging %v", stored, staging)
	}
	for k := range rows[20:] {
		if err := g.Update(rows[20+k], cols[20+k], vals[20+k]); err != nil {
			t.Fatal(err)
		}
	}
	want, err := g.NVals()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	for i, w := range g.workers {
		stored, staging := w.m.LevelCaps()
		top := len(stored) - 1
		n := w.m.LevelNVals()[top]
		for l := range stored {
			if l < top && stored[l] != 0 || staging[l] != 0 {
				t.Fatalf("shard %d level %d holds capacity %d stored / %d staging after Close", i, l+1, stored[l], staging[l])
			}
		}
		if n == 0 || stored[top] < n || stored[top] > n+n/8 {
			t.Fatalf("shard %d top holds capacity %d for %d entries after Close", i, stored[top], n)
		}
	}
	if got, err := g.NVals(); err != nil || got != want {
		t.Fatalf("NVals after Close = %d, %v; want %d", got, err, want)
	}
}

// benchReads times one analytic read on a two-shard group holding a
// million-cell power-law stream: warm (per-shard caches filled, so only
// the read-time fold runs) and cold (one re-added cell and a Flush before
// every call, so the owning shard recomputes its partials).
func benchReads(b *testing.B, read func(g *Group[uint64]) error) {
	rows, cols, vals := genBatches(b, 10, 100_000, 0x5eed)
	for _, cold := range []bool{false, true} {
		name := "Warm"
		if cold {
			name = "Cold"
		}
		b.Run(name, func(b *testing.B) {
			g, err := NewGroup[uint64](testDim, testDim, Config{Shards: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			for k := range rows {
				if err := g.Update(rows[k], cols[k], vals[k]); err != nil {
					b.Fatal(err)
				}
			}
			if err := read(g); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					b.StopTimer()
					k := i % len(rows[0])
					if err := g.Update(rows[0][k:k+1], cols[0][k:k+1], vals[0][k:k+1]); err != nil {
						b.Fatal(err)
					}
					if err := g.Flush(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := read(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTopRows measures Group.TopRows(10), warm and cold.
func BenchmarkTopRows(b *testing.B) {
	benchReads(b, func(g *Group[uint64]) error { _, err := g.TopRows(10); return err })
}

// BenchmarkAggregateAll measures Group.AggregateAll, warm and cold.
func BenchmarkAggregateAll(b *testing.B) {
	benchReads(b, func(g *Group[uint64]) error { _, err := g.AggregateAll(); return err })
}
