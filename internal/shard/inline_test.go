package shard

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hhgb/internal/gb"
	"hhgb/internal/hier"
)

// queuedCounts reports every worker's in-flight message count.
func queuedCounts[T gb.Number](g *Group[T]) []int64 {
	out := make([]int64, len(g.workers))
	for i, w := range g.workers {
		out[i] = w.queued.Load()
	}
	return out
}

func requireSettled[T gb.Number](t *testing.T, g *Group[T], when string) {
	t.Helper()
	for i, n := range queuedCounts(g) {
		if n != 0 {
			t.Fatalf("after %s: shard %d has %d messages in flight, want 0", when, i, n)
		}
	}
}

// TestInlineLookupConcurrentProducers drives all three ingest paths —
// striped Update, a dedicated Appender, UpdateSession — while lookups run,
// so reads take the inline path on quiescent shards and the queued
// barrier on busy ones. Each producer reads its own cell right after its
// call returns, while the entries may still sit in a producer buffer: the
// read must see them. Every batch also adds batchMass entries to one
// shared hot cell; with a handoff smaller than that, the hot cell's slice
// of a batch spans two buffers, and a concurrent lookup must still see a
// multiple of batchMass, never a torn batch. Run under -race.
func TestInlineLookupConcurrentProducers(t *testing.T) {
	const (
		batchMass = 24
		handoff   = 16
		iters     = 300
		hotRow    = 5
		hotCol    = 9
	)
	g, err := NewGroup[uint64](testDim, testDim, Config{
		Shards:  4,
		Handoff: handoff,
		Hier:    hier.Config{Cuts: hier.GeometricCuts(3, 256, 8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	app, err := g.NewAppender()
	if err != nil {
		t.Fatal(err)
	}
	ingest := []func(i int, rows, cols []gb.Index, vals []uint64) error{
		func(_ int, rows, cols []gb.Index, vals []uint64) error { return g.Update(rows, cols, vals) },
		func(_ int, rows, cols []gb.Index, vals []uint64) error { return app.Append(rows, cols, vals) },
		func(i int, rows, cols []gb.Index, vals []uint64) error {
			_, err := g.UpdateSession("inline", uint64(i)+1, rows, cols, vals, nil)
			return err
		},
	}
	var producers, readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, _, err := g.Lookup(hotRow, hotCol)
				if err != nil {
					t.Error(err)
					return
				}
				if v%batchMass != 0 || v < last {
					t.Errorf("hot cell read %d after %d: torn or regressed batch", v, last)
					return
				}
				last = v
			}
		}()
	}
	for p, put := range ingest {
		producers.Add(1)
		go func(p int, put func(int, []gb.Index, []gb.Index, []uint64) error) {
			defer producers.Done()
			rows := make([]gb.Index, 2*batchMass)
			cols := make([]gb.Index, 2*batchMass)
			vals := make([]uint64, 2*batchMass)
			for i := 0; i < iters; i++ {
				own := gb.Index(p+1)<<20 | gb.Index(i)
				for k := 0; k < batchMass; k++ {
					rows[2*k], cols[2*k], vals[2*k] = own, 7, 1
					rows[2*k+1], cols[2*k+1], vals[2*k+1] = hotRow, hotCol, 1
				}
				if err := put(i, rows, cols, vals); err != nil {
					t.Error(err)
					return
				}
				if v, ok, err := g.Lookup(own, 7); err != nil || !ok || v != batchMass {
					t.Errorf("producer %d: own cell read (%d, %v, %v) right after ingest, want %d", p, v, ok, err, batchMass)
					return
				}
			}
		}(p, put)
	}
	producers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	requireSettled(t, g, "Flush")
	want := uint64(len(ingest) * iters * batchMass)
	if v, _, err := g.Lookup(hotRow, hotCol); err != nil || v != want {
		t.Fatalf("hot cell = %d, %v; want %d", v, err, want)
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	requireSettled(t, g, "Close")
	if v, _, err := g.Lookup(hotRow, hotCol); err != nil || v != want {
		t.Fatalf("hot cell after Close = %d, %v; want %d", v, err, want)
	}
}

// TestLookupWaitsForRunningMessage parks a shard's worker in the middle of
// a message that writes a cell, then looks that cell up: the shard is not
// quiescent, so the lookup must wait for the message and see its write.
func TestLookupWaitsForRunningMessage(t *testing.T) {
	g, err := NewGroup[uint64](testDim, testDim, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	const row, col = 3, 11
	if err := g.Update([]gb.Index{row}, []gb.Index{col}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	w := g.workers[g.shardOf(row, col)]
	started, release := make(chan struct{}), make(chan struct{})
	g.mu.RLock() // a producer's send
	w.send(msg[uint64]{do: func(m *hier.Matrix[uint64]) {
		close(started)
		<-release
		if err := m.Update([]gb.Index{row}, []gb.Index{col}, []uint64{5}); err != nil {
			t.Error(err)
		}
	}, done: make(chan struct{})})
	g.mu.RUnlock()
	<-started

	got := make(chan uint64, 1)
	go func() {
		v, _, err := g.Lookup(row, col)
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	select {
	case v := <-got:
		t.Fatalf("lookup returned %d while the shard's worker was mid-message", v)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if v := <-got; v != 6 {
		t.Fatalf("lookup = %d after the message finished, want 6", v)
	}
	requireSettled(t, g, "the message and the lookup")
}

// TestQuiescentLookupAcrossClose keeps lookups running while the group
// closes. Close flushes and trims each shard's cascade; a quiescent read
// placed just before it may still hold the shard, so Close must wait for
// it. Run under -race, which reports an unordered overlap whether or not
// the two happened to run at the same instant.
func TestQuiescentLookupAcrossClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		g, err := NewGroup[uint64](testDim, testDim, testConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		rows, cols, vals := genBatches(t, 1, 2000, uint64(round)+1)
		if err := g.Update(rows[0], cols[0], vals[0]); err != nil {
			t.Fatal(err)
		}
		var readers sync.WaitGroup
		var closed atomic.Bool
		started := make(chan struct{}, 2)
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func(k int) {
				defer readers.Done()
				// Signal once the lookups are past the first one, which
				// hands the buffers off; signal on an early exit too.
				n := 0
				defer func() {
					if n < 2 {
						started <- struct{}{}
					}
				}()
				for ; !closed.Load(); n++ {
					if n == 2 {
						started <- struct{}{}
					}
					if _, ok, err := g.Lookup(rows[0][k], cols[0][k]); err != nil || !ok {
						t.Errorf("lookup (%d,%d): found %v, err %v", rows[0][k], cols[0][k], ok, err)
						return
					}
					k = (k + 2) % len(rows[0])
				}
			}(r)
		}
		<-started
		<-started
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		closed.Store(true)
		readers.Wait()
	}
}
