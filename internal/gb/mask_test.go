package gb

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMxMMaskedMatchesFilteredMxM(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	f := func() bool {
		a := randMatrix(r, 24, 20, 80)
		b := randMatrix(r, 20, 28, 80)
		mk := randMatrix(r, 24, 28, 100)
		masked, err := MxMMasked(a, b, plusTimes[int64](), StructuralMask(mk))
		if err != nil {
			return false
		}
		full, err := MxM(a, b, plusTimes[int64]())
		if err != nil {
			return false
		}
		want, err := Select(full, func(i, j Index, _ int64) bool {
			_, err := mk.ExtractElement(i, j)
			return err == nil
		})
		if err != nil {
			return false
		}
		return Equal(masked, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMxMMaskedErrors(t *testing.T) {
	a := MustNewMatrix[int64](4, 5)
	b := MustNewMatrix[int64](5, 6)
	mk := MustNewMatrix[int64](4, 6)
	if _, err := MxMMasked(a, b, plusTimes[int64](), Mask[int64]{}); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("nil mask: %v", err)
	}
	badMask := MustNewMatrix[int64](4, 5)
	if _, err := MxMMasked(a, b, plusTimes[int64](), StructuralMask(badMask)); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("mask dims: %v", err)
	}
	badB := MustNewMatrix[int64](9, 6)
	if _, err := MxMMasked(a, badB, plusTimes[int64](), StructuralMask(mk)); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("inner dims: %v", err)
	}
}

func TestMxMMaskedEmptyOperands(t *testing.T) {
	a := MustNewMatrix[int64](4, 4)
	b := MustNewMatrix[int64](4, 4)
	mk := MustNewMatrix[int64](4, 4)
	_ = mk.SetElement(0, 0, 1)
	c, err := MxMMasked(a, b, plusTimes[int64](), StructuralMask(mk))
	if err != nil || c.NVals() != 0 {
		t.Fatalf("empty: %v, %v", c, err)
	}
}
