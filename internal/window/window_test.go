package window

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"hhgb/internal/gb"
	"hhgb/internal/hier"
	"hhgb/internal/shard"
)

const dim = gb.Index(1) << 16

func testCfg(rollups ...int) Config {
	return Config{
		Window:  time.Second,
		RollUps: rollups,
		// A lateness beyond every test stream keeps the watermark from
		// auto-sealing: the tests drive sealing explicitly through Seal,
		// so window states are deterministic.
		Lateness: 1000 * time.Second,
		Shard:    shard.Config{Shards: 2, Handoff: 64},
	}
}

// entry is one timestamped reference observation.
type entry struct {
	ts   int64
	r, c gb.Index
	v    uint64
}

// genEntries produces a deterministic stream across nWindows seconds with
// a skewed row distribution (top-k needs collisions to be interesting).
func genEntries(seed int64, n, nWindows int) []entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]entry, n)
	for i := range out {
		r := gb.Index(rng.Intn(64))
		if rng.Intn(4) == 0 {
			r = gb.Index(rng.Intn(int(dim)))
		}
		out[i] = entry{
			ts: int64(rng.Intn(nWindows))*int64(time.Second) + int64(rng.Intn(int(time.Second))),
			r:  r,
			c:  gb.Index(rng.Intn(int(dim))),
			v:  uint64(rng.Intn(9) + 1),
		}
	}
	return out
}

// appendAll streams entries into the store in timestamp order (so nothing
// is late), in small batches.
func appendAll(t *testing.T, s *Store[uint64], entries []entry) {
	t.Helper()
	sorted := append([]entry(nil), entries...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].ts < sorted[j-1].ts; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j].ts == sorted[i].ts && j-i < 37 {
			j++
		}
		var rows, cols []gb.Index
		var vals []uint64
		for _, e := range sorted[i:j] {
			rows, cols, vals = append(rows, e.r), append(cols, e.c), append(vals, e.v)
		}
		if err := s.Append(sorted[i].ts, rows, cols, vals); err != nil {
			t.Fatalf("append ts=%d: %v", sorted[i].ts, err)
		}
		i = j
	}
}

// reference builds the flat matrix of every entry with ts in [t0, t1).
func reference(t *testing.T, entries []entry, t0, t1 int64) *gb.Matrix[uint64] {
	t.Helper()
	m, err := gb.NewMatrix[uint64](dim, dim)
	if err != nil {
		t.Fatal(err)
	}
	var rows, cols []gb.Index
	var vals []uint64
	for _, e := range entries {
		if e.ts >= t0 && e.ts < t1 {
			rows, cols, vals = append(rows, e.r), append(cols, e.c), append(vals, e.v)
		}
	}
	if err := m.AppendTuples(rows, cols, vals); err != nil {
		t.Fatal(err)
	}
	return m
}

func matricesEqual(a, b *gb.Matrix[uint64]) bool {
	if a.NVals() != b.NVals() {
		return false
	}
	equal := true
	a.Iterate(func(i, j gb.Index, v uint64) bool {
		w, err := b.ExtractElement(i, j)
		if err != nil || w != v {
			equal = false
			return false
		}
		return true
	})
	return equal
}

// TestRangeMatchesFlatReference is the acceptance property: every range
// query over a k-window span is bit-identical to materializing those
// windows into one flat matrix and querying it — including when roll-ups
// answer part of the span.
func TestRangeMatchesFlatReference(t *testing.T) {
	const nWindows = 16
	entries := genEntries(7, 4000, nWindows)
	s, err := New[uint64](dim, dim, testCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendAll(t, s, entries)
	// Seal the first 8 windows (completing two level-1 roll-ups of 4s
	// each); windows 8..15 stay active — ranges over them still answer.
	if err := s.Seal(8 * int64(time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().RollUps; got != 2 {
		t.Fatalf("RollUps = %d, want 2", got)
	}

	rng := rand.New(rand.NewSource(99))
	spans := [][2]int64{{0, 4}, {0, 8}, {2, 7}, {5, 13}, {8, 16}, {0, 16}, {3, 4}}
	for i := 0; i < 10; i++ {
		a := int64(rng.Intn(nWindows))
		b := a + 1 + int64(rng.Intn(nWindows-int(a)))
		spans = append(spans, [2]int64{a, b})
	}
	for _, sp := range spans {
		t0, t1 := sp[0]*int64(time.Second), sp[1]*int64(time.Second)
		r, err := s.QueryRange(t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Uncovered) != 0 {
			t.Fatalf("range [%d,%d): unexpected uncovered %v", sp[0], sp[1], r.Uncovered)
		}
		ref := reference(t, entries, t0, t1)

		got, err := r.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if !matricesEqual(got, ref) {
			t.Fatalf("range [%d,%d)s: materialized sum differs from flat reference", sp[0], sp[1])
		}
		nv, err := r.NVals()
		if err != nil || nv != ref.NVals() {
			t.Fatalf("range [%d,%d)s: NVals = %d (%v), want %d", sp[0], sp[1], nv, err, ref.NVals())
		}
		total, err := r.Total()
		if err != nil {
			t.Fatal(err)
		}
		wantTotal, err := gb.ReduceScalar(ref, gb.Plus[uint64]())
		if err != nil {
			t.Fatal(err)
		}
		if total != wantTotal {
			t.Fatalf("range [%d,%d)s: Total = %d, want %d", sp[0], sp[1], total, wantTotal)
		}
		top, err := r.TopRows(5)
		if err != nil {
			t.Fatal(err)
		}
		refSums, err := gb.ReduceRows(ref, gb.Plus[uint64]())
		if err != nil {
			t.Fatal(err)
		}
		gotSums, err := r.RowSums()
		if err != nil {
			t.Fatal(err)
		}
		refSums.Wait()
		gotSums.Wait()
		if gotSums.NVals() != refSums.NVals() {
			t.Fatalf("range [%d,%d)s: RowSums nvals %d want %d", sp[0], sp[1], gotSums.NVals(), refSums.NVals())
		}
		mismatch := false
		refSums.Iterate(func(i gb.Index, x uint64) bool {
			g, err := gotSums.ExtractElement(i)
			if err != nil || g != x {
				mismatch = true
				return false
			}
			return true
		})
		if mismatch {
			t.Fatalf("range [%d,%d)s: RowSums differ", sp[0], sp[1])
		}
		for k, e := range top {
			want, err := refSums.ExtractElement(e.Index)
			if err != nil || want != e.Value {
				t.Fatalf("range [%d,%d)s: top[%d] = (%d,%d), reference row sum %d (%v)",
					sp[0], sp[1], k, e.Index, e.Value, want, err)
			}
		}
		// Spot lookups, present and absent.
		for i := 0; i < 5; i++ {
			e := entries[rng.Intn(len(entries))]
			got, _, err := r.Lookup(e.r, e.c)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.ExtractElement(e.r, e.c)
			if errors.Is(err, gb.ErrNoValue) {
				want = 0
			} else if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("range [%d,%d)s: Lookup(%d,%d) = %d, want %d", sp[0], sp[1], e.r, e.c, got, want)
			}
		}
	}
}

// TestRangeTouchesOnlyCoveredWindows asserts span locality via the
// per-window query counters: a range query bumps exactly the cover and
// never a window outside the span — and a rolled-up span is served by ONE
// coarse window, not its children.
func TestRangeTouchesOnlyCoveredWindows(t *testing.T) {
	const nWindows = 8
	entries := genEntries(3, 1200, nWindows)
	s, err := New[uint64](dim, dim, testCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendAll(t, s, entries)
	if err := s.Seal(nWindows * int64(time.Second)); err != nil {
		t.Fatal(err)
	}

	sec := int64(time.Second)
	r, err := s.QueryRange(5*sec, 7*sec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Windows() != 2 {
		t.Fatalf("2-window span covered by %d windows: %v", r.Windows(), r.Spans())
	}
	for _, info := range s.Windows() {
		touched := info.Level == 0 && info.Start >= 5*sec && info.End <= 7*sec
		if touched && info.Queries != 1 {
			t.Fatalf("window L%d[%d,%d) inside span: queries = %d, want 1", info.Level, info.Start, info.End, info.Queries)
		}
		if !touched && info.Queries != 0 {
			t.Fatalf("window L%d[%d,%d) outside span: queries = %d, want 0", info.Level, info.Start, info.End, info.Queries)
		}
	}

	// A rolled-up 4s epoch answers from one level-1 window.
	r2, err := s.QueryRange(0, 4*sec)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Windows() != 1 {
		t.Fatalf("rolled 4s span covered by %d windows: %v", r2.Windows(), r2.Spans())
	}
	if sp := r2.Spans()[0]; sp.End-sp.Start != 4*sec {
		t.Fatalf("rolled span is %v, want the 4s parent", sp)
	}
	// And a misaligned span must descend to the children.
	r3, err := s.QueryRange(1*sec, 4*sec)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Windows() != 3 {
		t.Fatalf("misaligned 3-window span covered by %d windows: %v", r3.Windows(), r3.Spans())
	}
}

// TestRetentionExpiresAndRollUpsKeepServing: fine windows expire by
// retention while the roll-up keeps answering aligned long-range queries;
// sub-window resolution inside the expired region reports the hole.
func TestRetentionExpiresAndRollUpsKeepServing(t *testing.T) {
	const nWindows = 8
	entries := genEntries(11, 1500, nWindows)
	cfg := testCfg(4)
	cfg.Retentions = []time.Duration{6 * time.Second} // level 0 expires fast; level 1 forever
	s, err := New[uint64](dim, dim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendAll(t, s, entries)
	if err := s.Seal(nWindows * int64(time.Second)); err != nil {
		t.Fatal(err)
	}
	if exp := s.Stats().Expired; exp == 0 {
		t.Fatal("no level-0 window expired under a 6s retention")
	}
	sec := int64(time.Second)
	// The aligned first epoch answers from the roll-up.
	r, err := s.QueryRange(0, 4*sec)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Uncovered) != 0 || r.Windows() != 1 {
		t.Fatalf("aligned rolled span: windows=%d uncovered=%v", r.Windows(), r.Uncovered)
	}
	ref := reference(t, entries, 0, 4*sec)
	got, err := r.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(got, ref) {
		t.Fatal("rolled-up range differs from flat reference after child expiry")
	}
	// A misaligned span into the expired region reports its hole instead
	// of silently under-counting.
	r2, err := s.QueryRange(1*sec, 4*sec)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Uncovered) == 0 {
		t.Fatalf("misaligned span over expired children: want uncovered hole, got full cover %v", r2.Spans())
	}
}

// TestSubscribeOneSummaryPerSealInOrder asserts the subscription
// invariant at the store layer: exactly one summary per sealed level-0
// window, in seal (time) order, with counts matching the window contents.
func TestSubscribeOneSummaryPerSealInOrder(t *testing.T) {
	const nWindows = 10
	entries := genEntries(21, 2000, nWindows)
	s, err := New[uint64](dim, dim, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	sub := s.Subscribe(0)
	appendAll(t, s, entries)
	if err := s.Seal(nWindows * int64(time.Second)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	var sums []Summary[uint64]
	for {
		sum, ok := sub.Next()
		if !ok {
			break
		}
		sums = append(sums, sum)
	}
	if len(sums) != nWindows {
		t.Fatalf("received %d summaries, want %d", len(sums), nWindows)
	}
	for i, sum := range sums {
		if sum.Err != nil {
			t.Fatalf("summary %d: %v", i, sum.Err)
		}
		if want := int64(i) * int64(time.Second); sum.Start != want {
			t.Fatalf("summary %d out of order: start %d, want %d", i, sum.Start, want)
		}
		ref := reference(t, entries, sum.Start, sum.End)
		wantTotal, err := gb.ReduceScalar(ref, gb.Plus[uint64]())
		if err != nil {
			t.Fatal(err)
		}
		if sum.Entries != ref.NVals() || sum.Total != wantTotal {
			t.Fatalf("summary %d: entries=%d total=%d, want %d/%d", i, sum.Entries, sum.Total, ref.NVals(), wantTotal)
		}
	}
}

// TestLateAppendsAreRefusedAndCounted: appends behind the frontier fail
// with ErrLate and are counted, never silently dropped or applied.
func TestLateAppendsAreRefusedAndCounted(t *testing.T) {
	s, err := New[uint64](dim, dim, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sec := int64(time.Second)
	if err := s.Append(5*sec, []gb.Index{1}, []gb.Index{2}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(5 * sec); err != nil {
		t.Fatal(err)
	}
	err = s.Append(3*sec, []gb.Index{1}, []gb.Index{2}, []uint64{7})
	if !errors.Is(err, ErrLate) {
		t.Fatalf("late append: err = %v, want ErrLate", err)
	}
	if got := s.Stats().LateDrops; got != 1 {
		t.Fatalf("LateDrops = %d, want 1", got)
	}
	r, err := s.QueryRange(0, 6*sec)
	if err != nil {
		t.Fatal(err)
	}
	total, err := r.Total()
	if err != nil {
		t.Fatal(err)
	}
	if total != 1 {
		t.Fatalf("total after refused late append = %d, want 1", total)
	}
}

// TestSealIdempotentAndClockDriven: Seal on a quiet stream seals by clock;
// re-sealing is a no-op; sealed windows report entries in Windows().
func TestSealIdempotentAndClockDriven(t *testing.T) {
	s, err := New[uint64](dim, dim, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sec := int64(time.Second)
	for w := 0; w < 3; w++ {
		ts := int64(w)*sec + sec/2
		if err := s.Append(ts, []gb.Index{gb.Index(w)}, []gb.Index{9}, []uint64{uint64(w + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(3 * sec); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(3 * sec); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Seals != 3 || st.Sealed != 3 || st.Active != 0 {
		t.Fatalf("stats after sealing: %+v", st)
	}
	infos := s.Windows()
	if len(infos) != 3 {
		t.Fatalf("%d windows, want 3", len(infos))
	}
	for i, info := range infos {
		if info.State != Sealed || info.Entries != 1 {
			t.Fatalf("window %d: %+v, want sealed with 1 entry", i, info)
		}
	}
}

// TestSealedWindowsHoldNoIngestBuffers guards the windowed server's
// memory: every sealed window and roll-up parent the store retains is a
// closed group, and a closed group holds its entries and nothing else — no
// staging, no emptied lower levels, no growth slack beyond 1/8, no handoff
// slabs, and no cached vectors even after ranged top-k and summary reads
// touched it. A live window, by contrast, keeps its vector cache warm.
func TestSealedWindowsHoldNoIngestBuffers(t *testing.T) {
	const nWindows = 4
	sec := int64(time.Second)
	cfg := testCfg(nWindows)
	cfg.Shard.Hier = hier.Config{Cuts: []int{64, 512}}
	s, err := New[uint64](dim, dim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendAll(t, s, genEntries(21, 6000, nWindows))
	if err := s.Seal(nWindows * sec); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Seals != nWindows+1 || st.RollUps != 1 {
		t.Fatalf("stats %+v: want %d seals including 1 roll-up", st, nWindows+1)
	}
	if err := s.Append(nWindows*sec+5, []gb.Index{1, 2}, []gb.Index{3, 4}, []uint64{5, 6}); err != nil {
		t.Fatal(err)
	}
	// The parent alone, two children, and children plus the live window.
	for _, span := range [][2]int64{{0, nWindows}, {1, 3}, {2, nWindows + 1}} {
		r, err := s.QueryRange(span[0]*sec, span[1]*sec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.TopRows(5); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Materialize(); err != nil { // the range summary's path
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, w := range s.wins {
		slabs, vecs := w.g.Retained()
		if w.state.Load() == Active {
			if vecs == 0 {
				t.Fatalf("live window %v dropped its vector cache", k)
			}
			continue
		}
		if w.state.Load() != Sealed {
			t.Fatalf("window %v is %v", k, w.state.Load())
		}
		if slabs != 0 || vecs != 0 {
			t.Fatalf("sealed window %v retains %d slabs, %d cached vectors", k, slabs, vecs)
		}
		stored, staging := w.g.LevelCaps()
		top := len(stored) - 1
		n := w.g.LevelNVals()[top]
		for l := range stored {
			if l < top && stored[l] != 0 || staging[l] != 0 {
				t.Fatalf("sealed window %v level %d holds capacity %d stored / %d staging", k, l+1, stored[l], staging[l])
			}
		}
		if n == 0 || stored[top] < n || stored[top] > n+n/8 {
			t.Fatalf("sealed window %v top holds capacity %d for %d entries", k, stored[top], n)
		}
	}
}
