package hier

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"hhgb/internal/gb"
)

// streamInto pushes n random updates in batches of batch into both a
// hierarchical matrix and a reference flat matrix.
func streamInto(t *testing.T, r *rand.Rand, h *Matrix[int64], flat *gb.Matrix[int64], n, batch int, dim gb.Index) {
	t.Helper()
	for done := 0; done < n; {
		sz := batch
		if n-done < sz {
			sz = n - done
		}
		rows := make([]gb.Index, sz)
		cols := make([]gb.Index, sz)
		vals := make([]int64, sz)
		for k := 0; k < sz; k++ {
			rows[k] = gb.Index(r.Uint64() % uint64(dim))
			cols[k] = gb.Index(r.Uint64() % uint64(dim))
			vals[k] = int64(r.Intn(7) + 1)
		}
		if err := h.Update(rows, cols, vals); err != nil {
			t.Fatal(err)
		}
		if err := flat.AppendTuples(rows, cols, vals); err != nil {
			t.Fatal(err)
		}
		done += sz
	}
}

func TestGeometricCuts(t *testing.T) {
	// powers returns ratio^0 … ratio^(fit-1), then math.MaxInt up to n cuts.
	powers := func(n, ratio, fit int) []int {
		out := make([]int, n)
		for i, c := 0, 1; i < n; i++ {
			if i < fit {
				out[i], c = c, c*ratio
			} else {
				out[i] = math.MaxInt
			}
		}
		return out
	}
	for _, c := range []struct {
		name                string
		levels, base, ratio int
		want                []int
	}{
		{"four levels", 4, 100, 10, []int{100, 1000, 10000}},
		{"one level", 1, 100, 10, []int{}},
		{"no levels", 0, 100, 10, nil},
		// 5^28 wraps to a positive cut below 5^27.
		{"would wrap positive", 30, 1, 5, powers(29, 5, 28)},
		// 2^63 wraps to math.MinInt.
		{"would wrap negative", 66, 1, 2, powers(65, 2, 63)},
	} {
		got := GeometricCuts(c.levels, c.base, c.ratio)
		if !slices.Equal(got, c.want) || (got == nil) != (c.want == nil) {
			t.Fatalf("%s: GeometricCuts(%d, %d, %d) = %v, want %v", c.name, c.levels, c.base, c.ratio, got, c.want)
		}
		if err := (Config{Cuts: got}).Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Cuts: []int{10, 0}}).Validate(); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("zero cut: %v", err)
	}
	if err := (Config{Cuts: []int{10, 100}}).Validate(); err != nil {
		t.Fatalf("valid cuts: %v", err)
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	if got := DefaultConfig().Levels(); got != DefaultLevels {
		t.Fatalf("default levels = %d", got)
	}
}

func TestSingleLevelDegeneratesToFlat(t *testing.T) {
	h := MustNew[int64](64, 64, Config{})
	if h.NumLevels() != 1 {
		t.Fatalf("levels = %d", h.NumLevels())
	}
	_ = h.Update([]gb.Index{1}, []gb.Index{2}, []int64{3})
	q, err := h.Query()
	if err != nil {
		t.Fatal(err)
	}
	v, _ := q.ExtractElement(1, 2)
	if v != 3 {
		t.Fatalf("value = %d", v)
	}
}

func TestLinearityEquivalenceProperty(t *testing.T) {
	// The paper's central mathematical claim: for ANY cuts, the hierarchy
	// is exactly equivalent to flat accumulation.
	r := rand.New(rand.NewSource(100))
	f := func() bool {
		levels := 1 + r.Intn(5)
		cuts := make([]int, levels-1)
		for i := range cuts {
			cuts[i] = 1 + r.Intn(200)
		}
		h := MustNew[int64](256, 256, Config{Cuts: cuts})
		flat := gb.MustNewMatrix[int64](256, 256)
		n := 200 + r.Intn(2000)
		batch := 1 + r.Intn(97)
		for done := 0; done < n; done += batch {
			sz := batch
			if n-done < sz {
				sz = n - done
			}
			rows := make([]gb.Index, sz)
			cols := make([]gb.Index, sz)
			vals := make([]int64, sz)
			for k := 0; k < sz; k++ {
				rows[k] = gb.Index(r.Uint64() % 256)
				cols[k] = gb.Index(r.Uint64() % 256)
				vals[k] = int64(r.Intn(9) - 4)
			}
			if err := h.Update(rows, cols, vals); err != nil {
				return false
			}
			_ = flat.AppendTuples(rows, cols, vals)
		}
		q, err := h.Query()
		if err != nil {
			return false
		}
		return gb.Equal(q, flat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCutBoundInvariant(t *testing.T) {
	// After every Update, nnz(Ai) <= ci for all non-top levels.
	r := rand.New(rand.NewSource(101))
	cuts := []int{50, 500}
	h := MustNew[int64](1<<30, 1<<30, Config{Cuts: cuts})
	for step := 0; step < 300; step++ {
		sz := 1 + r.Intn(40)
		rows := make([]gb.Index, sz)
		cols := make([]gb.Index, sz)
		vals := make([]int64, sz)
		for k := 0; k < sz; k++ {
			rows[k] = gb.Index(r.Uint64() % (1 << 30))
			cols[k] = gb.Index(r.Uint64() % (1 << 30))
			vals[k] = 1
		}
		if err := h.Update(rows, cols, vals); err != nil {
			t.Fatal(err)
		}
		lv := h.LevelNVals()
		for i, cut := range cuts {
			if lv[i] > cut {
				t.Fatalf("step %d: level %d has %d > cut %d", step, i, lv[i], cut)
			}
		}
	}
}

func TestQueryDoesNotDisturbState(t *testing.T) {
	r := rand.New(rand.NewSource(102))
	h := MustNew[int64](128, 128, Config{Cuts: []int{20}})
	flat := gb.MustNewMatrix[int64](128, 128)
	streamInto(t, r, h, flat, 500, 13, 128)
	before := h.LevelNVals()
	q1, err := h.Query()
	if err != nil {
		t.Fatal(err)
	}
	after := h.LevelNVals()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("Query changed level %d: %d -> %d", i, before[i], after[i])
		}
	}
	// Query is repeatable.
	q2, err := h.Query()
	if err != nil {
		t.Fatal(err)
	}
	if !gb.Equal(q1, q2) {
		t.Fatal("repeated Query differs")
	}
	// And stream can continue after a query.
	streamInto(t, r, h, flat, 200, 7, 128)
	q3, _ := h.Query()
	if !gb.Equal(q3, flat) {
		t.Fatal("post-query stream diverged from flat reference")
	}
}

func TestFlushCollapsesToTop(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	h := MustNew[int64](128, 128, Config{Cuts: []int{10, 100}})
	flat := gb.MustNewMatrix[int64](128, 128)
	streamInto(t, r, h, flat, 700, 9, 128)
	top, err := h.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if !gb.Equal(top, flat) {
		t.Fatal("Flush total != flat reference")
	}
	lv := h.LevelNVals()
	for i := 0; i < len(lv)-1; i++ {
		if lv[i] != 0 {
			t.Fatalf("level %d not empty after Flush: %d", i, lv[i])
		}
	}
	// Stream continues correctly after Flush.
	streamInto(t, r, h, flat, 300, 11, 128)
	q, _ := h.Query()
	if !gb.Equal(q, flat) {
		t.Fatal("post-flush stream diverged")
	}
}

func TestUpdateMatrix(t *testing.T) {
	h := MustNew[int64](64, 64, Config{Cuts: []int{5}})
	a := gb.MustNewMatrix[int64](64, 64)
	for i := gb.Index(0); i < 10; i++ {
		_ = a.SetElement(i, i, 2)
	}
	if err := h.UpdateMatrix(a); err != nil {
		t.Fatal(err)
	}
	n, err := h.NVals()
	if err != nil || n != 10 {
		t.Fatalf("NVals = %d, %v", n, err)
	}
	// Cut of 5 exceeded: level 0 must have cascaded.
	if h.Stats().Cascades[0] != 1 {
		t.Fatalf("cascades = %v", h.Stats().Cascades)
	}
	bad := gb.MustNewMatrix[int64](32, 32)
	if err := h.UpdateMatrix(bad); !errors.Is(err, gb.ErrDimensionMismatch) {
		t.Fatalf("dim mismatch: %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	h := MustNew[int64](1<<20, 1<<20, Config{Cuts: []int{100}})
	r := rand.New(rand.NewSource(104))
	total := 0
	batches := 0
	for step := 0; step < 50; step++ {
		sz := 25
		rows := make([]gb.Index, sz)
		cols := make([]gb.Index, sz)
		vals := make([]int64, sz)
		for k := 0; k < sz; k++ {
			rows[k] = gb.Index(r.Uint64() % (1 << 20))
			cols[k] = gb.Index(r.Uint64() % (1 << 20))
			vals[k] = 1
		}
		_ = h.Update(rows, cols, vals)
		total += sz
		batches++
	}
	s := h.Stats()
	if s.Updates != int64(total) || s.Batches != int64(batches) {
		t.Fatalf("stats = %+v", s)
	}
	if s.Cascades[0] == 0 {
		t.Fatal("expected cascades with cut=100 and 1250 sparse updates")
	}
	// Cascaded traffic into slow memory must be far less than 1 entry per
	// update ingested — the memory-pressure claim in its simplest form.
	if s.CascadedEntries[0] > s.Updates {
		t.Fatalf("cascade moved more entries (%d) than were ingested (%d)", s.CascadedEntries[0], s.Updates)
	}
}

func TestClear(t *testing.T) {
	h := MustNew[int64](64, 64, DefaultConfig())
	_ = h.Update([]gb.Index{1}, []gb.Index{1}, []int64{1})
	h.Clear()
	n, err := h.NVals()
	if err != nil || n != 0 {
		t.Fatalf("after clear: %d, %v", n, err)
	}
}

func TestUpdateOutOfBoundsRejected(t *testing.T) {
	h := MustNew[int64](16, 16, DefaultConfig())
	err := h.Update([]gb.Index{16}, []gb.Index{0}, []int64{1})
	if !errors.Is(err, gb.ErrIndexOutOfBounds) {
		t.Fatalf("got %v", err)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New[int64](16, 16, Config{Cuts: []int{-1}}); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("got %v", err)
	}
	if _, err := New[int64](0, 16, Config{}); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("zero dim: %v", err)
	}
}

func TestDuplicateHeavyStreamCollapses(t *testing.T) {
	// A stream hammering few distinct keys must keep all levels tiny:
	// duplicates combine in fast memory and cascades stay rare.
	h := MustNew[int64](1<<40, 1<<40, Config{Cuts: []int{64, 1024}})
	for step := 0; step < 1000; step++ {
		rows := []gb.Index{gb.Index(uint64(step % 8))}
		cols := []gb.Index{gb.Index(uint64(step % 4))}
		if err := h.Update(rows, cols, []int64{1}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := h.NVals()
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("distinct entries = %d, want 8", n)
	}
	if h.Stats().Cascades[0] != 0 {
		t.Fatalf("duplicate-heavy stream should never cascade, got %v", h.Stats().Cascades)
	}
	q, _ := h.Query()
	total, _ := gb.ReduceScalar(q, gb.Plus[int64]())
	if total != 1000 {
		t.Fatalf("value mass = %d, want 1000", total)
	}
}

func TestLevelAccessor(t *testing.T) {
	h := MustNew[int64](16, 16, Config{Cuts: []int{2}})
	_ = h.Update([]gb.Index{1}, []gb.Index{1}, []int64{1})
	if h.Level(0) == nil || h.Level(1) == nil {
		t.Fatal("nil level")
	}
	if h.String() == "" {
		t.Fatal("empty String")
	}
}

func TestDeepCascadePropagates(t *testing.T) {
	// Tiny cuts force promotions through every level in one Update.
	h := MustNew[int64](1<<20, 1<<20, Config{Cuts: []int{1, 2, 3}})
	rows := make([]gb.Index, 64)
	cols := make([]gb.Index, 64)
	vals := make([]int64, 64)
	for k := range rows {
		rows[k] = gb.Index(uint64(k))
		cols[k] = gb.Index(uint64(k))
		vals[k] = 1
	}
	if err := h.Update(rows, cols, vals); err != nil {
		t.Fatal(err)
	}
	s := h.Stats()
	for i := 0; i < 3; i++ {
		if s.Cascades[i] == 0 {
			t.Fatalf("level %d never cascaded: %v", i, s.Cascades)
		}
	}
	lv := h.LevelNVals()
	if lv[3] != 64 {
		t.Fatalf("top level holds %d, want 64 (levels: %v)", lv[3], lv)
	}
	n, _ := h.NVals()
	if n != 64 {
		t.Fatalf("NVals = %d", n)
	}
}

// TestExtractElementSumsLevels checks the point lookup equals the
// materialized query for cells living at one level, split across levels,
// and absent — plus the bounds error.
func TestExtractElementSumsLevels(t *testing.T) {
	h := MustNew[uint64](1<<20, 1<<20, Config{Cuts: []int{2, 8}})
	// Repeatedly update one cell so copies of it cascade upward and the
	// cell exists at several levels at once.
	for i := 0; i < 12; i++ {
		if err := h.Update([]gb.Index{7, uint64(100 + i)}, []gb.Index{9, 3}, []uint64{5, 1}); err != nil {
			t.Fatal(err)
		}
	}
	q, err := h.Query()
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.ExtractElement(7, 9)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := h.ExtractElement(7, 9)
	if err != nil || !ok {
		t.Fatalf("ExtractElement(7,9) ok=%v err=%v", ok, err)
	}
	if got != want {
		t.Fatalf("ExtractElement(7,9) = %d, Query says %d", got, want)
	}
	if _, ok, err := h.ExtractElement(8, 8); err != nil || ok {
		t.Fatalf("absent cell: ok=%v err=%v; want false, nil", ok, err)
	}
	if _, _, err := h.ExtractElement(1<<20, 0); err == nil {
		t.Fatal("out of bounds should fail")
	}
}

// feedDistinct streams entries [from, from+n) of a fixed sequence of
// distinct cells with spread-out rows, in batches, reusing one set of
// batch slices so the feeding itself allocates nothing.
func feedDistinct(t *testing.T, h *Matrix[uint64], from, n, batch int) {
	t.Helper()
	rows := make([]gb.Index, batch)
	cols := make([]gb.Index, batch)
	vals := make([]uint64, batch)
	for done := 0; done < n; done += batch {
		for k := range rows {
			id := uint64(from + done + k)
			rows[k] = gb.Index(id * 0x9e3779b97f4a7c15 >> 32) // < 2^32: the packed-key sort path
			cols[k] = gb.Index(id)
			vals[k] = 1
		}
		if err := h.Update(rows, cols, vals); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCascadeBytesPerEntryBudget holds a warm cascade to the only
// allocation it has a reason for: the unbounded top level's amortised
// growth. A distinct-row cell occupies 32 bytes there (column id, value,
// row id, row pointer); growth by doubling allocates at most 2x the final
// capacity, itself at most 2x the entries, so 4 x 32 bytes per entry is the
// ceiling. Levels below the top retain their buffers across promotions and
// add nothing. (A cascade that builds a new A(i+1) per promotion spends
// over 1,000 bytes per entry at these cuts.)
func TestCascadeBytesPerEntryBudget(t *testing.T) {
	const (
		batch    = 256
		warm     = 64 << 10
		measured = 512 << 10
		budget   = 4 * 32
	)
	h := MustNew[uint64](1<<32, 1<<32, Config{Cuts: []int{1 << 10, 1 << 14}})
	feedDistinct(t, h, 0, warm, batch)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	feedDistinct(t, h, warm, measured, batch)
	runtime.ReadMemStats(&after)
	perEntry := float64(after.TotalAlloc-before.TotalAlloc) / measured
	t.Logf("%.1f bytes allocated per entry, cascades %v", perEntry, h.Stats().Cascades)
	if perEntry > budget {
		t.Fatalf("warm cascade allocates %.1f bytes per entry, budget is %d", perEntry, budget)
	}
	if n, err := h.NVals(); err != nil || n != warm+measured {
		t.Fatalf("NVals = %d, %v; want %d", n, err, warm+measured)
	}
}

// TestRetentionEndsWithTrim: levels keep their buffers across promotions;
// a mid-stream Flush leaves level 1's in place (the next batch lands
// there) and hands back only the emptied levels between it and the top;
// Trim releases everything ingest-only: nothing below the top, the top
// within 1/8 of its entries.
func TestRetentionEndsWithTrim(t *testing.T) {
	h := MustNew[uint64](1<<32, 1<<32, Config{Cuts: []int{1 << 10, 1 << 14}})
	feedDistinct(t, h, 0, 100<<10, 256)
	stored, staging := h.LevelCaps()
	if staging[0] == 0 || stored[0] == 0 || stored[1] == 0 {
		t.Fatalf("promotions released buffers: stored %v staging %v", stored, staging)
	}
	if _, err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	stored, staging = h.LevelCaps()
	if staging[0] == 0 || stored[0] == 0 || stored[1] != 0 {
		t.Fatalf("after a mid-stream Flush: stored %v staging %v; want level 1 kept, level 2 released", stored, staging)
	}
	feedDistinct(t, h, 100<<10, 50<<10, 256) // still ingests after Flush
	if _, err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	h.Trim()
	stored, staging = h.LevelCaps()
	top := len(stored) - 1
	n := h.LevelNVals()[top]
	if n != 150<<10 {
		t.Fatalf("top holds %d entries, want %d", n, 150<<10)
	}
	for l := range stored {
		if l < top && stored[l] != 0 || staging[l] != 0 {
			t.Fatalf("Trim left level %d with capacity %d stored / %d staging", l+1, stored[l], staging[l])
		}
	}
	if stored[top] < n || stored[top] > n+n/8 {
		t.Fatalf("Trim left the top with capacity %d for %d entries", stored[top], n)
	}
}
