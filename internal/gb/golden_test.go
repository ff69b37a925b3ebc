package gb_test

import (
	"bytes"
	"os"
	"slices"
	"testing"

	"hhgb/internal/gb"
	"hhgb/internal/hier"
)

// The snapshot format is older than the storage layout behind it: the
// streams under testdata/ were written by the DCSR layout this package
// stored before its sorted (row, col, val) triples. Every durable directory
// holds such streams, so each must still decode to the same cells and
// re-encode to the same bytes.

// top is the largest index of the 2^64-1 x 2^64-1 space the golden
// matrices live in.
const top = ^gb.Index(0) - 1

// goldenBatch is the golden gb matrix's input, unsorted: a row with several
// cells, a cell set twice, an explicit zero, and indices past 2^32 up to
// the top of the index space.
func goldenBatch() (rows, cols []gb.Index, vals []uint64) {
	return []gb.Index{3, 7, top, 3, 1 << 40, 7, 2, 3},
		[]gb.Index{9, 2, top, 1, 1 << 33, 2, 0, 5},
		[]uint64{30, 1, 99, 10, 40, 4, 0, 20}
}

// goldenCells is goldenBatch combined by plus, in row-major order.
var goldenCells = []gb.Tuple[uint64]{
	{Row: 2, Col: 0, Val: 0},
	{Row: 3, Col: 1, Val: 10},
	{Row: 3, Col: 5, Val: 20},
	{Row: 3, Col: 9, Val: 30},
	{Row: 7, Col: 2, Val: 5},
	{Row: 1 << 40, Col: 1 << 33, Val: 40},
	{Row: top, Col: top, Val: 99},
}

// goldenLevels is what each level of the golden hier matrix holds: goldenBatch
// promoted past level 1, flushed to the top, then a second batch left in
// level 1. Level 2 is empty.
var goldenLevels = [][]gb.Tuple[uint64]{
	{{Row: 3, Col: 5, Val: 1}, {Row: 9, Col: 9, Val: 2}},
	nil,
	goldenCells,
}

var goldenCuts = []int{4, 64}

func tuplesOf(m *gb.Matrix[uint64]) []gb.Tuple[uint64] {
	var out []gb.Tuple[uint64]
	m.Iterate(func(i, j gb.Index, v uint64) bool {
		out = append(out, gb.Tuple[uint64]{Row: i, Col: j, Val: v})
		return true
	})
	return out
}

// goldenMatrix builds the golden gb matrix through the current kernels.
func goldenMatrix(t *testing.T) *gb.Matrix[uint64] {
	m := gb.MustNewMatrix[uint64](top+1, top+1)
	rows, cols, vals := goldenBatch()
	if err := m.AppendTuples(rows, cols, vals); err != nil {
		t.Fatal(err)
	}
	return m
}

// goldenHier builds the golden hier matrix through the current cascade.
func goldenHier(t *testing.T) *hier.Matrix[uint64] {
	h := hier.MustNew[uint64](top+1, top+1, hier.Config{Cuts: goldenCuts})
	rows, cols, vals := goldenBatch()
	if err := h.Update(rows, cols, vals); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := h.Update([]gb.Index{9, 3}, []gb.Index{9, 5}, []uint64{2, 1}); err != nil {
		t.Fatal(err)
	}
	return h
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGoldenMatrixStream(t *testing.T) {
	golden := readGolden(t, "matrix.gb")
	m, err := gb.Decode[uint64](bytes.NewReader(golden), gb.Uint64Codec[uint64]())
	if err != nil {
		t.Fatal(err)
	}
	if got := tuplesOf(m); !slices.Equal(got, goldenCells) {
		t.Fatalf("decoded %v\nwant %v", got, goldenCells)
	}
	for name, m := range map[string]*gb.Matrix[uint64]{"decoded": m, "built": goldenMatrix(t)} {
		var buf bytes.Buffer
		if err := gb.Encode(&buf, m, gb.Uint64Codec[uint64]()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Fatalf("%s matrix encodes to\n%x\nwant\n%x", name, buf.Bytes(), golden)
		}
	}
}

func TestGoldenHierStream(t *testing.T) {
	golden := readGolden(t, "cascade.hier")
	h, err := hier.Decode[uint64](bytes.NewReader(golden), gb.Uint64Codec[uint64]())
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() != len(goldenLevels) {
		t.Fatalf("decoded %d levels, want %d", h.NumLevels(), len(goldenLevels))
	}
	for l, want := range goldenLevels {
		if got := tuplesOf(h.Level(l)); !slices.Equal(got, want) {
			t.Fatalf("level %d decoded %v\nwant %v", l+1, got, want)
		}
	}
	for name, h := range map[string]*hier.Matrix[uint64]{"decoded": h, "built": goldenHier(t)} {
		var buf bytes.Buffer
		if err := hier.Encode(&buf, h, gb.Uint64Codec[uint64]()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Fatalf("%s cascade encodes to\n%x\nwant\n%x", name, buf.Bytes(), golden)
		}
	}
}
