package gb

import "testing"

// The staging stage (AppendTuples → stageTuples) is where every ingest
// batch lands in a cascade level; it must append into the pending SoA
// without allocating once pending capacity has warmed. Wait is off the
// per-batch path (it runs at merge/barrier cadence) and is held to the
// same budget: the pack/sort/unpack machinery reuses retained scratch and
// the merge runs in the matrix's own DCSR arrays, so a warm Wait that does
// not have to grow them allocates nothing.

func allocTuples(n int) (rows, cols []Index, vals []float64) {
	rows = make([]Index, n)
	cols = make([]Index, n)
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		// Spread across rows and columns, small indices: the narrow
		// (packed-key radix) sort path, which is the steady state.
		rows[i] = Index((i * 2654435761) % 1024)
		cols[i] = Index((i * 40503) % 1024)
		vals[i] = float64(i) + 0.5
	}
	return rows, cols, vals
}

func TestAllocBudgetStageTuples(t *testing.T) {
	m := MustNewMatrix[float64](1024, 1024)
	rows, cols, vals := allocTuples(256)
	if err := m.AppendTuples(rows, cols, vals); err != nil { // warm pending capacity
		t.Fatalf("AppendTuples: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		m.pRow = m.pRow[:0]
		m.pCol = m.pCol[:0]
		m.pVal = m.pVal[:0]
		if err := m.AppendTuples(rows, cols, vals); err != nil {
			t.Fatalf("AppendTuples: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm stageTuples allocates %.1f/op, budget is 0", allocs)
	}
}

// waitAllocBudget is the warm Wait allocation budget for a re-merge that
// fits the matrix's capacity. The cost this guards is bytes, not counts: a
// Wait that rebuilt its output arrays would show here as 8 allocations and
// on the ingest profile as hundreds of bytes of garbage per insert.
const waitAllocBudget = 0

func TestAllocBudgetWait(t *testing.T) {
	m := MustNewMatrix[float64](1024, 1024)
	rows, cols, vals := allocTuples(256)
	if err := m.AppendTuples(rows, cols, vals); err != nil {
		t.Fatalf("AppendTuples: %v", err)
	}
	m.Wait() // warm sort scratch and establish the merge target
	allocs := testing.AllocsPerRun(50, func() {
		if err := m.AppendTuples(rows, cols, vals); err != nil {
			t.Fatalf("AppendTuples: %v", err)
		}
		m.Wait()
	})
	if allocs > waitAllocBudget {
		t.Fatalf("warm Wait allocates %.1f/op, budget is %d", allocs, waitAllocBudget)
	}
}

// TestAllocBudgetPromoteRowGap: a warm Promote whose every source row is
// already in dst — the row gap the merge's upper-bound sizing leaves,
// closed by sliding dst's shorter prefix up and later moving it back to
// the front of its arrays — allocates nothing.
func TestAllocBudgetPromoteRowGap(t *testing.T) {
	const nrows, runs = 256, 50
	dst := MustNewMatrix[float64](1024, 1024)
	src := MustNewMatrix[float64](1024, 1024)
	rows, cols, vals := make([]Index, nrows), make([]Index, nrows), make([]float64, nrows)
	for i := range rows {
		rows[i], vals[i] = Index(i), 1
	}
	if err := dst.AppendTuples(rows, cols, vals); err != nil {
		t.Fatal(err)
	}
	// src holds the top three quarters of dst's rows, in a new column each
	// time: every row shared, no cell.
	srcRows, srcCols, srcVals := rows[nrows/4:], cols[nrows/4:], vals[nrows/4:]
	promote := func() {
		for k := range srcCols {
			srcCols[k]++
		}
		if err := src.AppendTuples(srcRows, srcCols, srcVals); err != nil {
			t.Fatal(err)
		}
		if err := Promote(dst, src, Plus[float64]().Op); err != nil {
			t.Fatal(err)
		}
	}
	promote() // warm src's staging and sort scratch
	withCapacity(dst, 2*nrows, nrows+(runs+2)*len(srcRows))
	if allocs := testing.AllocsPerRun(runs, promote); allocs != 0 {
		t.Fatalf("warm Promote closing a row gap allocates %.1f/op, budget is 0", allocs)
	}
	if n, want := dst.NVals(), nrows+(runs+2)*len(srcRows); n != want || len(dst.rows) != nrows {
		t.Fatalf("dst holds %d entries in %d rows, want %d in %d", n, len(dst.rows), want, nrows)
	}
	mustInvariants(t, dst)
}
