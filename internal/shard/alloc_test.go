package shard

import (
	"fmt"
	"runtime"
	"testing"

	"hhgb/internal/flight"
	"hhgb/internal/gb"
	"hhgb/internal/hier"
)

// The append stage — Appender.append partitioning a validated batch into
// slab-backed shard buffers — is the producer-side per-entry hot path and
// must not allocate once each shard's buffer is slab-backed.
//
// Measurement note: AllocsPerRun counts process-global mallocs, so the
// shard workers must stay idle while the loop runs. The test forces that
// by choosing a Handoff far larger than everything the loop appends: no
// buffer ever reaches the handoff size, so no message is sent and the
// workers stay parked on their queues.
func TestAllocBudgetAppenderAppend(t *testing.T) {
	const (
		handoff = 1 << 16
		batch   = 256
		runs    = 100
	)
	g, err := NewGroup[float64](1<<20, 1<<20, Config{
		Shards:  4,
		Handoff: handoff,
		Hier:    hier.Config{Cuts: nil},
	})
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	defer g.Close()

	a, err := g.NewAppender()
	if err != nil {
		t.Fatalf("NewAppender: %v", err)
	}
	rows := make([]gb.Index, batch)
	cols := make([]gb.Index, batch)
	vals := make([]float64, batch)
	for i := range rows {
		rows[i] = gb.Index(i * 2654435761 % (1 << 20))
		cols[i] = gb.Index(i * 40503 % (1 << 20))
		vals[i] = 1
	}
	// Warm-up: attach a slab to every shard the batch touches. The loop
	// appends runs×batch entries per shard at most, far under handoff, so
	// no handoff (and no worker wake-up) happens inside the measurement.
	if err := a.Append(rows, cols, vals); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if runs*batch >= handoff {
		t.Fatalf("measurement would overflow the handoff buffer: %d >= %d", runs*batch, handoff)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if err := a.Append(rows, cols, vals); err != nil {
			t.Fatalf("Append: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Appender.Append allocates %.1f/op, budget is 0", allocs)
	}
}

// The tracing plane must be free when it is not sampling: a group with a
// flight recorder wired in (tracing compiled in, as every server now
// runs) and nil spans (the unsampled case — sample rate 0) keeps the
// session ingest path at zero allocations. The dup branch is the one a
// reconnect retransmit storm hammers, so it is measured directly: every
// frame below the accepted frontier must dedup without a single malloc,
// recorder or not.
func TestAllocBudgetSessionDedupTraced(t *testing.T) {
	g, err := NewGroup[float64](1<<20, 1<<20, Config{
		Shards:  4,
		Handoff: 1 << 16,
		Hier:    hier.Config{Cuts: nil},
		Flight:  flight.NewRecorder(0),
	})
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	defer g.Close()

	rows := []gb.Index{1, 2, 3}
	cols := []gb.Index{4, 5, 6}
	vals := []float64{1, 1, 1}
	// Advance the session frontier past the seq the loop replays, then
	// drain so the workers are parked before the measurement.
	if dup, err := g.UpdateSession("storm", 8, rows, cols, vals, nil); err != nil || dup {
		t.Fatalf("seed frame: dup=%v err=%v", dup, err)
	}
	if err := g.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		dup, err := g.UpdateSession("storm", 3, rows, cols, vals, nil)
		if err != nil || !dup {
			t.Fatalf("dup=%v err=%v, want dup", dup, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("traced session dedup allocates %.1f/op, budget is 0", allocs)
	}
}

// Single-shard groups take the bulk-copy branch of append; pin it too.
func TestAllocBudgetAppenderAppendSingleShard(t *testing.T) {
	g, err := NewGroup[float64](1<<20, 1<<20, Config{
		Shards:  1,
		Handoff: 1 << 16,
		Hier:    hier.Config{Cuts: nil},
	})
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	defer g.Close()
	a, err := g.NewAppender()
	if err != nil {
		t.Fatalf("NewAppender: %v", err)
	}
	rows := make([]gb.Index, 256)
	cols := make([]gb.Index, 256)
	vals := make([]float64, 256)
	for i := range rows {
		rows[i], cols[i], vals[i] = gb.Index(i), gb.Index(i+1), 1
	}
	if err := a.Append(rows, cols, vals); err != nil {
		t.Fatalf("Append: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := a.Append(rows, cols, vals); err != nil {
			t.Fatalf("Append: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm single-shard Append allocates %.1f/op, budget is 0", allocs)
	}
}

// warmReads are the reads the warm-read budgets hold, with their checks.
func warmReads(g *Group[uint64], rows int) []struct {
	name string
	call func() error
} {
	return []struct {
		name string
		call func() error
	}{
		{"TopRows(10)", func() error {
			top, err := g.TopRows(10)
			if err == nil && (len(top) != 10 || top[0].Value != 7) {
				err = fmt.Errorf("wrong answer: %+v", top)
			}
			return err
		}},
		{"AggregateAll", func() error {
			agg, err := g.AggregateAll()
			if err == nil && (agg.Rows != rows || agg.NVals != rows) {
				err = fmt.Errorf("wrong answer: %+v", agg)
			}
			return err
		}},
	}
}

// warmGroup returns a flushed two-shard group holding one cell in each of
// rows distinct rows.
func warmGroup(t *testing.T, rows int) *Group[uint64] {
	t.Helper()
	g, err := NewGroup[uint64](testDim, testDim, Config{Shards: 2, Hier: hier.DefaultConfig()})
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	r := make([]gb.Index, rows)
	c := make([]gb.Index, rows)
	v := make([]uint64, rows)
	for k := range r {
		r[k] = gb.Index(k)
		c[k] = gb.Index(k*2654435761) % testDim
		v[k] = uint64(k%7 + 1)
	}
	if err := g.Update(r, c, v); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := g.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return g
}

// Warm analytic reads fold the cached per-shard partials; they must not
// build anything proportional to them. Both budgets are per call on a
// flushed two-shard group holding 250,000 distinct rows (so each merged
// vector the reads used to build was megabytes): a handful of small
// objects — the barrier's channels and closures, the result slices, the
// k-entry heaps, the range bounds — and never a vector. This is what keeps
// a server's resident set flat under a read-heavy load.
//
// The partials are far above gb.ParallelFoldMin, so at GOMAXPROCS > 1 every
// read folds one index range per core; the budget holds at 2, 4 and 8.
// testing.AllocsPerRun would pin GOMAXPROCS to 1 and measure the serial
// fold instead, so the mallocs are counted from runtime.MemStats.
func TestAllocBudgetWarmReads(t *testing.T) {
	const (
		entries     = 250_000
		allocBudget = 16
		byteBudget  = 16 << 10
		runs        = 20
	)
	g := warmGroup(t, entries)
	defer g.Close()
	for _, procs := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, kind := range []vectorKind{rowSums, rowDegrees, colDegrees} {
				parts, err := g.partials(kind)
				if err != nil {
					t.Fatal(err)
				}
				if n := gb.FoldRanges(parts); n != procs {
					t.Fatalf("partials of kind %d fold on %d ranges, want %d: the parallel path is not taken", kind, n, procs)
				}
			}
			for _, read := range warmReads(g, entries) {
				for range 3 { // prime the caches, the fold helpers and the runtime's free lists
					if err := read.call(); err != nil {
						t.Fatalf("%s: %v", read.name, err)
					}
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for range runs {
					if err := read.call(); err != nil {
						t.Fatalf("%s: %v", read.name, err)
					}
				}
				runtime.ReadMemStats(&after)
				allocs := float64(after.Mallocs-before.Mallocs) / runs
				bytes := (after.TotalAlloc - before.TotalAlloc) / runs
				t.Logf("warm %s: %.1f allocs, %d bytes per call", read.name, allocs, bytes)
				if allocs > allocBudget || bytes > byteBudget {
					t.Fatalf("warm %s allocates %.1f objects / %d bytes per call, budget is %d / %d",
						read.name, allocs, bytes, allocBudget, byteBudget)
				}
			}
		})
	}
}

// Below gb.ParallelFoldMin a warm read folds serially, whatever
// GOMAXPROCS is, and allocates exactly what it did before the parallel
// fold existed: no range bounds, no per-range heaps, no job.
func TestAllocBudgetWarmReadsSerial(t *testing.T) {
	const entries = 1_000
	want := map[string]float64{"TopRows(10)": 9, "AggregateAll": 11}
	g := warmGroup(t, entries)
	defer g.Close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, kind := range []vectorKind{rowSums, rowDegrees, colDegrees} {
		parts, err := g.partials(kind)
		if err != nil {
			t.Fatal(err)
		}
		if n := gb.FoldRanges(parts); n != 1 {
			t.Fatalf("partials of kind %d fold on %d ranges below the cutoff", kind, n)
		}
	}
	for _, read := range warmReads(g, entries) {
		if err := read.call(); err != nil {
			t.Fatalf("%s: %v", read.name, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := read.call(); err != nil {
				t.Fatalf("%s: %v", read.name, err)
			}
		})
		if allocs != want[read.name] {
			t.Fatalf("warm serial %s allocates %.1f objects per call, want exactly %.0f", read.name, allocs, want[read.name])
		}
	}
}

// A lookup on a quiescent shard is read on the caller's goroutine with no
// barrier closure, no done channel and no escaping result: zero
// allocations. The queued barrier allocates both, so a zero here also
// proves the inline path served every call.
func TestAllocBudgetQuiescentLookup(t *testing.T) {
	g, err := NewGroup[uint64](testDim, testDim, Config{Shards: 4, Hier: hier.DefaultConfig()})
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	defer g.Close()
	const entries = 10_000
	rows := make([]gb.Index, entries)
	cols := make([]gb.Index, entries)
	vals := make([]uint64, entries)
	for k := range rows {
		rows[k] = gb.Index(k)
		cols[k] = gb.Index(k*2654435761) % testDim
		vals[k] = uint64(k%7 + 1)
	}
	if err := g.Update(rows, cols, vals); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := g.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		k = (k + 977) % entries
		v, ok, err := g.Lookup(rows[k], cols[k])
		if err != nil || !ok || v != vals[k] {
			t.Fatalf("Lookup(%d,%d) = %d, %v, %v; want %d", rows[k], cols[k], v, ok, err, vals[k])
		}
		if _, ok, err := g.Lookup(rows[k], (cols[k]+1)%testDim); err != nil || ok {
			t.Fatalf("Lookup of an empty cell: found %v, err %v", ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("quiescent Lookup allocates %.1f/op, budget is 0", allocs)
	}
}
