package gb

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorBasics(t *testing.T) {
	v := MustNewVector[int64](100)
	_ = v.SetElement(5, 2)
	_ = v.SetElement(5, 3)
	_ = v.SetElement(50, 7)
	if v.NVals() != 2 {
		t.Fatalf("NVals = %d", v.NVals())
	}
	x, err := v.ExtractElement(5)
	if err != nil || x != 5 {
		t.Fatalf("v(5) = %d, %v", x, err)
	}
	if _, err := v.ExtractElement(6); !errors.Is(err, ErrNoValue) {
		t.Fatalf("got %v", err)
	}
	if _, err := v.ExtractElement(200); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("got %v", err)
	}
}

func TestVectorZeroSizeRejected(t *testing.T) {
	if _, err := NewVector[int64](0); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("got %v", err)
	}
}

func TestVectorSetElementOOB(t *testing.T) {
	v := MustNewVector[int64](4)
	if err := v.SetElement(4, 1); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("got %v", err)
	}
}

func TestVectorWaitMergesSortedUnion(t *testing.T) {
	v := MustNewVector[int64](100)
	_ = v.SetElement(50, 1)
	v.Wait()
	_ = v.SetElement(10, 2)
	_ = v.SetElement(50, 3)
	_ = v.SetElement(90, 4)
	v.Wait()
	idx, vals := v.ExtractTuples()
	wantIdx := []Index{10, 50, 90}
	wantVal := []int64{2, 4, 4}
	if len(idx) != 3 {
		t.Fatalf("idx = %v", idx)
	}
	for k := range wantIdx {
		if idx[k] != wantIdx[k] || vals[k] != wantVal[k] {
			t.Fatalf("entry %d: (%d,%d), want (%d,%d)", k, idx[k], vals[k], wantIdx[k], wantVal[k])
		}
	}
}

func TestVectorClearDup(t *testing.T) {
	v := MustNewVector[int64](10)
	_ = v.SetElement(1, 5)
	d := v.Dup()
	v.Clear()
	if v.NVals() != 0 {
		t.Fatalf("clear: %d", v.NVals())
	}
	if d.NVals() != 1 {
		t.Fatalf("dup affected by clear: %d", d.NVals())
	}
}

func TestVecEWiseAddBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	f := func() bool {
		a := MustNewVector[int64](64)
		b := MustNewVector[int64](64)
		for k := 0; k < 30; k++ {
			_ = a.SetElement(Index(r.Uint64()%64), int64(r.Intn(9)))
			_ = b.SetElement(Index(r.Uint64()%64), int64(r.Intn(9)))
		}
		c, err := VecEWiseAdd(a, b, Plus[int64]().Op)
		if err != nil {
			return false
		}
		ref := make(map[Index]int64)
		a.Iterate(func(i Index, x int64) bool { ref[i] += x; return true })
		b.Iterate(func(i Index, x int64) bool { ref[i] += x; return true })
		if c.NVals() != len(ref) {
			return false
		}
		ok := true
		c.Iterate(func(i Index, x int64) bool {
			if ref[i] != x {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVecDimensionMismatch(t *testing.T) {
	a := MustNewVector[int64](4)
	b := MustNewVector[int64](5)
	if _, err := VecEWiseAdd(a, b, Plus[int64]().Op); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("add: %v", err)
	}
}

func TestVecReduceAndApply(t *testing.T) {
	v := MustNewVector[int64](10)
	_ = v.SetElement(1, 3)
	_ = v.SetElement(5, 4)
	total, err := VecReduce(v, Plus[int64]())
	if err != nil || total != 7 {
		t.Fatalf("reduce = %d, %v", total, err)
	}
	doubled := v.Dup()
	for k := range doubled.val {
		doubled.val[k] *= 2
	}
	total2, _ := VecReduce(doubled, Plus[int64]())
	if total2 != 14 {
		t.Fatalf("apply+reduce = %d", total2)
	}
}

func TestVectorIterateEarlyStop(t *testing.T) {
	v := MustNewVector[int64](10)
	for k := Index(0); k < 6; k++ {
		_ = v.SetElement(k, 1)
	}
	n := 0
	v.Iterate(func(Index, int64) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("visited %d", n)
	}
}

func TestVectorHugeIndexSpace(t *testing.T) {
	v := MustNewVector[uint64](1 << 60)
	_ = v.SetElement(1<<59, 42)
	x, err := v.ExtractElement(1 << 59)
	if err != nil || x != 42 {
		t.Fatalf("got %d, %v", x, err)
	}
}
