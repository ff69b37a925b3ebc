package hier

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"hhgb/internal/gb"
	"hhgb/internal/powerlaw"
)

func TestEncodeDecodeRoundTripMidStream(t *testing.T) {
	// Snapshot a matrix mid-cascade; the restored copy must produce the
	// same query AND the same future behaviour (cascade state is exact).
	r := rand.New(rand.NewSource(300))
	h := MustNew[uint64](1<<30, 1<<30, Config{Cuts: []int{100, 1000}})
	flatten := func(n int, target *Matrix[uint64]) {
		for k := 0; k < n; k++ {
			rows := []gb.Index{gb.Index(r.Uint64() % (1 << 30))}
			cols := []gb.Index{gb.Index(r.Uint64() % (1 << 30))}
			if err := target.Update(rows, cols, []uint64{1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	flatten(777, h)

	var buf bytes.Buffer
	if err := Encode(&buf, h, gb.Uint64Codec[uint64]()); err != nil {
		t.Fatal(err)
	}
	restored, err := Decode[uint64](&buf, gb.Uint64Codec[uint64]())
	if err != nil {
		t.Fatal(err)
	}

	// Same configuration.
	if restored.NumLevels() != h.NumLevels() {
		t.Fatalf("levels %d != %d", restored.NumLevels(), h.NumLevels())
	}
	for i, c := range h.cuts {
		if restored.cuts[i] != c {
			t.Fatalf("cuts %v != %v", restored.cuts, h.cuts)
		}
	}
	// Same per-level occupancy (exact cascade state).
	lv1, lv2 := h.LevelNVals(), restored.LevelNVals()
	for i := range lv1 {
		if lv1[i] != lv2[i] {
			t.Fatalf("level occupancy %v != %v", lv1, lv2)
		}
	}
	// Same query.
	q1, _ := h.Query()
	q2, _ := restored.Query()
	if !gb.Equal(q1, q2) {
		t.Fatal("restored query differs")
	}
	// Same future: continue both with an identical deterministic stream.
	g1, _ := powerlaw.NewRMAT(20, 42)
	g2, _ := powerlaw.NewRMAT(20, 42)
	for k := 0; k < 50; k++ {
		e1 := g1.Edges(20)
		e2 := g2.Edges(20)
		r1, c1, v1 := powerlaw.ToTuples(e1)
		r2, c2, v2 := powerlaw.ToTuples(e2)
		if err := h.Update(r1, c1, v1); err != nil {
			t.Fatal(err)
		}
		if err := restored.Update(r2, c2, v2); err != nil {
			t.Fatal(err)
		}
	}
	q1, _ = h.Query()
	q2, _ = restored.Query()
	if !gb.Equal(q1, q2) {
		t.Fatal("futures diverged after restore")
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	if _, err := Decode[uint64](strings.NewReader("NOTHIERxxxxxxxxxxxxxxxxx"), gb.Uint64Codec[uint64]()); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	h := MustNew[uint64](1<<20, 1<<20, Config{Cuts: []int{10}})
	_ = h.Update([]gb.Index{1, 2, 3}, []gb.Index{4, 5, 6}, []uint64{1, 1, 1})
	var buf bytes.Buffer
	if err := Encode(&buf, h, gb.Uint64Codec[uint64]()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{4, 12, len(full) / 2, len(full) - 1} {
		if _, err := Decode[uint64](bytes.NewReader(full[:cut]), gb.Uint64Codec[uint64]()); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestEncodeEmptyHierarchy(t *testing.T) {
	h := MustNew[uint64](1<<40, 1<<40, DefaultConfig())
	var buf bytes.Buffer
	if err := Encode(&buf, h, gb.Uint64Codec[uint64]()); err != nil {
		t.Fatal(err)
	}
	restored, err := Decode[uint64](&buf, gb.Uint64Codec[uint64]())
	if err != nil {
		t.Fatal(err)
	}
	n, err := restored.NVals()
	if err != nil || n != 0 {
		t.Fatalf("restored empty: %d, %v", n, err)
	}
	if restored.NRows() != 1<<40 {
		t.Fatalf("dims = %d", restored.NRows())
	}
}
