package stats

import (
	"errors"
	"math"
	"slices"
	"sort"
	"testing"

	"hhgb/internal/gb"
)

// sample builds the matrix
//
//	src 1 -> dst 2 (5 pkts), dst 3 (1 pkt)
//	src 4 -> dst 2 (7 pkts)
func sample(t *testing.T) *gb.Matrix[uint64] {
	t.Helper()
	m, err := gb.MatrixFromTuples(1<<32, 1<<32,
		[]gb.Index{1, 1, 4}, []gb.Index{2, 3, 2},
		[]uint64{5, 1, 7}, gb.Plus[uint64]().Op)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDegreesAndTraffic(t *testing.T) {
	m := sample(t)
	od, err := OutDegrees(m)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := od.ExtractElement(1); v != 2 {
		t.Fatalf("outdeg(1) = %d", v)
	}
	if v, _ := od.ExtractElement(4); v != 1 {
		t.Fatalf("outdeg(4) = %d", v)
	}
	id, err := InDegrees(m)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := id.ExtractElement(2); v != 2 {
		t.Fatalf("indeg(2) = %d", v)
	}
	ot, err := OutTraffic(m)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := ot.ExtractElement(1); v != 6 {
		t.Fatalf("outtraffic(1) = %d", v)
	}
	it, err := InTraffic(m)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := it.ExtractElement(2); v != 12 {
		t.Fatalf("intraffic(2) = %d", v)
	}
}

func TestTopK(t *testing.T) {
	m := sample(t)
	it, _ := InTraffic(m)
	top, err := TopK(it, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].Index != 2 || top[0].Value != 12 {
		t.Fatalf("top = %+v", top)
	}
	all, err := TopK(it, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("len = %d", len(all))
	}
	// Descending order.
	if all[0].Value < all[1].Value {
		t.Fatalf("not descending: %+v", all)
	}
	if _, err := TopK(it, -1); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("negative k: %v", err)
	}
	zero, err := TopK(it, 0)
	if err != nil || len(zero) != 0 {
		t.Fatalf("k=0: %v, %v", zero, err)
	}
}

func TestTopKTieBreak(t *testing.T) {
	v := gb.MustNewVector[uint64](100)
	_ = v.SetElement(9, 5)
	_ = v.SetElement(3, 5)
	top, err := TopK(v, 2)
	if err != nil {
		t.Fatal(err)
	}
	if top[0].Index != 3 || top[1].Index != 9 {
		t.Fatalf("tie break by index broken: %+v", top)
	}
}

func TestSummarize(t *testing.T) {
	m := sample(t)
	s, err := Summarize(m)
	if err != nil {
		t.Fatal(err)
	}
	want := Summary{
		Entries:      3,
		Sources:      2,
		Destinations: 2,
		TotalPackets: 13,
		MaxOutDegree: 2,
		MaxInDegree:  2,
	}
	if s != want {
		t.Fatalf("summary = %+v, want %+v", s, want)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	m := gb.MustNewMatrix[uint64](16, 16)
	s, err := Summarize(m)
	if err != nil {
		t.Fatal(err)
	}
	if s != (Summary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
}

// TestSelectTopKMatchesFullSort fuzzes the bounded-heap selection against
// a reference full sort: identical output for every k, including value
// ties (broken by lower index) and k beyond the entry count — up to
// math.MaxInt, which must size the heap by the vector, not by k.
func TestSelectTopKMatchesFullSort(t *testing.T) {
	v := gb.MustNewVector[uint64](1 << 20)
	rng := uint64(0x9e3779b97f4a7c15)
	n := 500
	idx := make([]gb.Index, 0, n)
	vals := make([]uint64, 0, n)
	seen := map[gb.Index]bool{}
	for len(idx) < n {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		i := gb.Index(rng % (1 << 20))
		if seen[i] {
			continue
		}
		seen[i] = true
		idx = append(idx, i)
		vals = append(vals, rng%17) // few distinct values: lots of ties
	}
	for k := range idx {
		if err := v.SetElement(idx[k], vals[k]); err != nil {
			t.Fatal(err)
		}
	}
	reference := func(k int) []Top[uint64] {
		all := make([]Top[uint64], 0, n)
		v.Iterate(func(i gb.Index, x uint64) bool {
			all = append(all, Top[uint64]{Index: i, Value: x})
			return true
		})
		sort.Slice(all, func(a, b int) bool { return topLess(all[a], all[b]) })
		if k < len(all) {
			all = all[:k]
		}
		return all
	}
	for _, k := range []int{0, 1, 2, 7, 99, n, n + 100, 1 << 40, math.MaxInt} {
		got, err := SelectTopK(v, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		want := reference(k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d entries, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d entry %d: got %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}
	if _, err := SelectTopK(v, -1); err == nil {
		t.Fatal("negative k should fail")
	}
}

// TestFoldTopKMatchesSelectOfMerged splits one vector's entries over
// several parts — each value in one or two pieces, parts of unequal length,
// one of them nil — and checks that folding the parts ranks exactly as
// selecting from the whole does, for every k. An entry's pieces are each
// smaller than values held whole elsewhere, so ranking any part on its own
// would get it wrong.
func TestFoldTopKMatchesSelectOfMerged(t *testing.T) {
	const n, nparts = 600, 4
	whole := gb.MustNewVector[uint64](1 << 40)
	parts := make([]*gb.Vector[uint64], nparts+1) // the last stays nil
	for p := range parts[:nparts] {
		parts[p] = gb.MustNewVector[uint64](1 << 40)
	}
	rng := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < n; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		idx := gb.Index(i)*7 + 1<<33
		x := rng % 23 // few distinct values: lots of ties
		if err := whole.SetElement(idx, x); err != nil {
			t.Fatal(err)
		}
		a, b := int(rng>>8)%nparts, int(rng>>16)%(nparts-1) // part 3 stays short
		pieces := map[int]uint64{a: x}
		if a != b {
			pieces = map[int]uint64{a: x - x/2, b: x / 2}
		}
		for p, piece := range pieces {
			if err := parts[p].SetElement(idx, piece); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, k := range []int{0, 1, 3, 50, n, n + 1, math.MaxInt} {
		got, err := FoldTopK(parts, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		want, err := SelectTopK(whole, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d: fold of parts ranks %d entries, the whole vector %d; first %+v vs %+v",
				k, len(got), len(want), got[:min(3, len(got))], want[:min(3, len(want))])
		}
	}
	if _, err := FoldTopK(parts, -1); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("negative k: %v, want ErrInvalidValue", err)
	}
}

// TestTopKDelegatesToSelect checks the uint64 wrapper stays consistent
// with the generic selection.
func TestTopKDelegatesToSelect(t *testing.T) {
	m := sample(t)
	ot, err := OutTraffic(m)
	if err != nil {
		t.Fatal(err)
	}
	top, err := TopK(ot, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0] != (Entry{Index: 4, Value: 7}) || top[1] != (Entry{Index: 1, Value: 6}) {
		t.Fatalf("TopK = %+v", top)
	}
}

// TestFoldTopKRangesMatchSerialAndMap checks the parallel top-k fold,
// driven through gb.AppendSplit at 1, 2, 3 and 8 ranges, against the
// serial fold and against a map reference, on the arrangements that could
// break it: ties whose members straddle a pivot, an index stored in one
// part only, parts empty inside a range, nil parts, a single part, and
// k = 0 and k beyond the entry count.
func TestFoldTopKRangesMatchSerialAndMap(t *testing.T) {
	vec := func(m map[gb.Index]uint64) *gb.Vector[uint64] {
		v := gb.MustNewVector[uint64](1 << 40)
		for i, x := range m {
			if err := v.SetElement(i, x); err != nil {
				t.Fatal(err)
			}
		}
		v.Wait()
		return v
	}
	// The longest part holds indices 0..99, so its quantile pivots fall at
	// 50 for two ranges, 33 and 66 for three, and every 12 or 13 for eight.
	// Value 9 is tied across 45..55 and 30..36, straddling those pivots; the
	// rest of the part ties at 1.
	long := map[gb.Index]uint64{}
	for i := gb.Index(0); i < 100; i++ {
		long[i] = 1
		if (i >= 45 && i <= 55) || (i >= 30 && i <= 36) {
			long[i] = 9
		}
	}
	rng := uint64(0x9e3779b97f4a7c15)
	random := func(n int, span gb.Index) map[gb.Index]uint64 {
		m := map[gb.Index]uint64{}
		for len(m) < n {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			m[gb.Index(rng)%span] = rng >> 60
		}
		return m
	}
	cases := []struct {
		name  string
		parts []map[gb.Index]uint64
	}{
		{"ties-straddle-pivots", []map[gb.Index]uint64{long}},
		{"ties-straddle-pivots-split", []map[gb.Index]uint64{long, {50: 0, 12: 8, 13: 1}}},
		// 1000 is stored by the short part alone, beyond every pivot.
		{"index-in-one-part", []map[gb.Index]uint64{long, {1000: 9}}},
		// The second part has nothing above 5: empty in every later range.
		{"part-empty-in-ranges", []map[gb.Index]uint64{long, {0: 4, 3: 8, 5: 9}}},
		{"nil-parts", []map[gb.Index]uint64{nil, long, nil, {70: 8}}},
		{"single-part", []map[gb.Index]uint64{random(500, 1<<20)}},
		{"random-three", []map[gb.Index]uint64{random(300, 4000), random(900, 4000), random(40, 4000)}},
		{"all-nil", []map[gb.Index]uint64{nil, nil}},
	}
	for _, c := range cases {
		parts := make([]*gb.Vector[uint64], len(c.parts))
		sums := map[gb.Index]uint64{}
		for p, m := range c.parts {
			if m == nil {
				continue
			}
			parts[p] = vec(m)
			for i, x := range m {
				sums[i] += x
			}
		}
		var ref []Top[uint64]
		for i, x := range sums {
			ref = append(ref, Top[uint64]{Index: i, Value: x})
		}
		slices.SortFunc(ref, func(a, b Top[uint64]) int {
			if topLess(a, b) {
				return -1
			}
			return 1
		})
		for _, k := range []int{0, 1, 5, 12, len(sums), len(sums) + 7} {
			serial, err := FoldTopK(parts, k)
			if err != nil {
				t.Fatal(err)
			}
			want := ref[:min(k, len(ref))]
			if !slices.Equal(serial, want) {
				t.Fatalf("%s k=%d: serial fold %v, map %v", c.name, k, serial, want)
			}
			for _, n := range []int{1, 2, 3, 8} {
				got := foldTopKRanges(parts, gb.AppendSplit(nil, parts, n), k)
				if !slices.Equal(got, want) {
					t.Fatalf("%s k=%d ranges=%d: parallel fold %v, map %v", c.name, k, n, got, want)
				}
			}
		}
	}
}
