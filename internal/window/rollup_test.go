package window

import (
	"testing"
	"time"

	"hhgb/internal/gb"
	"hhgb/internal/powerlaw"
	"hhgb/internal/shard"
)

// TestSealSummariesMatchReference: every published seal summary — level-0
// windows and the roll-up parent alike — equals the digest a map over the
// window's raw entries computes.
func TestSealSummariesMatchReference(t *testing.T) {
	const nWindows = 4
	s, err := New[uint64](dim, dim, testCfg(nWindows))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sub := s.Subscribe()
	entries := genEntries(31, 5000, nWindows)
	appendAll(t, s, entries)
	if err := s.Seal(nWindows * int64(time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := sub.Pending(); got != nWindows+1 {
		t.Fatalf("%d summaries published, want %d", got, nWindows+1)
	}
	for i := 0; i < nWindows+1; i++ {
		got, _ := sub.Next()
		if got.Err != nil {
			t.Fatalf("summary of [%d,%d): %v", got.Start, got.End, got.Err)
		}
		want := Summary[uint64]{Level: got.Level, Start: got.Start, End: got.End}
		type cell struct{ r, c gb.Index }
		cells, rows, cols := map[cell]bool{}, map[gb.Index]bool{}, map[gb.Index]bool{}
		for _, e := range entries {
			if e.ts >= got.Start && e.ts < got.End {
				cells[cell{e.r, e.c}], rows[e.r], cols[e.c] = true, true, true
				want.Total += e.v
			}
		}
		want.Entries, want.Sources, want.Destinations = len(cells), len(rows), len(cols)
		if got != want {
			t.Fatalf("summary %+v, reference %+v", got, want)
		}
	}
}

// BenchmarkRollUp times one roll-up: ten sealed 200k-entry scale-32 R-MAT
// windows of two shards added into their parent, which is then closed and
// summarized (materializeParent end to end). B/op is the garbage the
// roll-up leaves beside the parent it keeps.
func BenchmarkRollUp(b *testing.B) {
	const children, perChild = 10, 200_000
	s, err := New[uint64](1<<32, 1<<32, Config{
		Window:   time.Second,
		RollUps:  []int{children},
		Lateness: 1000 * time.Second,
		Shard:    shard.Config{Shards: 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	gen, err := powerlaw.NewRMAT(32, 1)
	if err != nil {
		b.Fatal(err)
	}
	rows, cols := make([]gb.Index, perChild), make([]gb.Index, perChild)
	vals := make([]uint64, perChild)
	for i := range vals {
		vals[i] = 1
	}
	for w := 0; w < children; w++ {
		if err := gen.Fill(rows, cols); err != nil {
			b.Fatal(err)
		}
		if err := s.Append(int64(w)*int64(time.Second), rows, cols, vals); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Seal(children * int64(time.Second)); err != nil { // rolls up once
		b.Fatal(err)
	}
	var kids []*win[uint64]
	for w := 0; w < children; w++ {
		kids = append(kids, s.wins[key{0, int64(w) * int64(time.Second)}])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		delete(s.wins, key{1, 0})
		b.StartTimer()
		if err := s.materializeParent(1, 0, kids); err != nil {
			b.Fatal(err)
		}
	}
}
