package gb

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTripInt(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	f := func() bool {
		m := randMatrix(r, 1<<20, 1<<20, 300)
		var buf bytes.Buffer
		if err := Encode(&buf, m, Int64Codec[int64]()); err != nil {
			return false
		}
		got, err := Decode[int64](&buf, Int64Codec[int64]())
		if err != nil {
			return false
		}
		return Equal(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTripFloat(t *testing.T) {
	m := MustNewMatrix[float64](1<<40, 1<<40)
	_ = m.SetElement(12345678901, 98765432109, math.Pi)
	_ = m.SetElement(1, 2, -0.0)
	_ = m.SetElement(1, 3, math.MaxFloat64)
	var buf bytes.Buffer
	if err := Encode(&buf, m, Float64Codec[float64]()); err != nil {
		t.Fatal(err)
	}
	got, err := Decode[float64](&buf, Float64Codec[float64]())
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(m, got) {
		t.Fatal("float round trip mismatch")
	}
}

func TestEncodeDecodeEmpty(t *testing.T) {
	m := MustNewMatrix[uint64](1<<50, 1<<50)
	var buf bytes.Buffer
	if err := Encode(&buf, m, Uint64Codec[uint64]()); err != nil {
		t.Fatal(err)
	}
	got, err := Decode[uint64](&buf, Uint64Codec[uint64]())
	if err != nil {
		t.Fatal(err)
	}
	if got.NVals() != 0 || got.NRows() != 1<<50 {
		t.Fatalf("empty round trip: %s", got)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	_, err := Decode[int64](strings.NewReader("NOTAMATRIXxxxxxxxxxxx"), Int64Codec[int64]())
	if err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	m := MustNewMatrix[int64](100, 100)
	_ = m.SetElement(3, 4, 5)
	var buf bytes.Buffer
	if err := Encode(&buf, m, Int64Codec[int64]()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, len(full) / 2, len(full) - 1} {
		if _, err := Decode[int64](bytes.NewReader(full[:cut]), Int64Codec[int64]()); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestUint64CodecLossless(t *testing.T) {
	c := Uint64Codec[uint64]()
	for _, v := range []uint64{0, 1, 1<<53 + 1, math.MaxUint64} {
		if got := c.Get(c.Put(v)); got != v {
			t.Fatalf("codec lost %d -> %d", v, got)
		}
	}
}

func TestInt64CodecLossless(t *testing.T) {
	c := Int64Codec[int64]()
	for _, v := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
		if got := c.Get(c.Put(v)); got != v {
			t.Fatalf("codec lost %d -> %d", v, got)
		}
	}
}
