package gb

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEWiseAddBasic(t *testing.T) {
	a := MustNewMatrix[int64](8, 8)
	b := MustNewMatrix[int64](8, 8)
	_ = a.SetElement(1, 1, 1)
	_ = a.SetElement(2, 2, 2)
	_ = b.SetElement(2, 2, 10)
	_ = b.SetElement(3, 3, 3)
	c, err := EWiseAdd(a, b, Plus[int64]().Op)
	if err != nil {
		t.Fatal(err)
	}
	mustInvariants(t, c)
	want := map[[2]Index]int64{{1, 1}: 1, {2, 2}: 12, {3, 3}: 3}
	got := denseOf(c)
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("entry %v = %d, want %d", k, got[k], v)
		}
	}
}

func TestEWiseAddDimensionMismatch(t *testing.T) {
	a := MustNewMatrix[int64](8, 8)
	b := MustNewMatrix[int64](8, 9)
	if _, err := EWiseAdd(a, b, Plus[int64]().Op); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("got %v", err)
	}
}

func TestEWiseAddEmptyOperands(t *testing.T) {
	a := MustNewMatrix[int64](8, 8)
	b := MustNewMatrix[int64](8, 8)
	c, err := EWiseAdd(a, b, Plus[int64]().Op)
	if err != nil {
		t.Fatal(err)
	}
	if c.NVals() != 0 {
		t.Fatalf("NVals = %d", c.NVals())
	}
	_ = b.SetElement(1, 1, 5)
	c, err = EWiseAdd(a, b, Plus[int64]().Op)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(c, b) {
		t.Fatal("empty + b != b")
	}
}

func TestEWiseAddCommutativeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	f := func() bool {
		a := randMatrix(r, 48, 48, 150)
		b := randMatrix(r, 48, 48, 150)
		ab, err1 := EWiseAdd(a, b, Plus[int64]().Op)
		ba, err2 := EWiseAdd(b, a, Plus[int64]().Op)
		return err1 == nil && err2 == nil && Equal(ab, ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEWiseAddAssociativeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func() bool {
		a := randMatrix(r, 32, 32, 100)
		b := randMatrix(r, 32, 32, 100)
		c := randMatrix(r, 32, 32, 100)
		plus := Plus[int64]().Op
		ab, _ := EWiseAdd(a, b, plus)
		abc1, _ := EWiseAdd(ab, c, plus)
		bc, _ := EWiseAdd(b, c, plus)
		abc2, _ := EWiseAdd(a, bc, plus)
		return Equal(abc1, abc2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEWiseAddIdentityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	f := func() bool {
		a := randMatrix(r, 32, 32, 100)
		empty := MustNewMatrix[int64](32, 32)
		c, err := EWiseAdd(a, empty, Plus[int64]().Op)
		return err == nil && Equal(c, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEWiseAddAgainstDenseReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		a := randMatrix(r, 24, 24, 120)
		b := randMatrix(r, 24, 24, 120)
		c, err := EWiseAdd(a, b, Plus[int64]().Op)
		if err != nil {
			t.Fatal(err)
		}
		ref := denseOf(a)
		for k, v := range denseOf(b) {
			if cur, ok := ref[k]; ok {
				ref[k] = cur + v
			} else {
				ref[k] = v
			}
		}
		got := denseOf(c)
		if len(got) != len(ref) {
			t.Fatalf("trial %d: nnz %d vs ref %d", trial, len(got), len(ref))
		}
		for k, v := range ref {
			if got[k] != v {
				t.Fatalf("trial %d: entry %v = %d, want %d", trial, k, got[k], v)
			}
		}
	}
}

func TestAddAssignMatchesEWiseAdd(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	f := func() bool {
		a := randMatrix(r, 32, 32, 100)
		b := randMatrix(r, 32, 32, 100)
		want, _ := EWiseAdd(a, b, Plus[int64]().Op)
		if err := AddAssign(a, b, Plus[int64]().Op); err != nil {
			return false
		}
		return Equal(a, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAddAssignIntoEmptyCopies(t *testing.T) {
	a := MustNewMatrix[int64](8, 8)
	b := MustNewMatrix[int64](8, 8)
	_ = b.SetElement(2, 2, 9)
	if err := AddAssign(a, b, Plus[int64]().Op); err != nil {
		t.Fatal(err)
	}
	if !Equal(a, b) {
		t.Fatal("AddAssign into empty did not copy")
	}
	// Must be a copy, not an alias of b's storage.
	_ = a.SetElement(2, 2, 1)
	a.Wait()
	v, _ := b.ExtractElement(2, 2)
	if v != 9 {
		t.Fatalf("b mutated through a: %d", v)
	}
}

func TestAddAssignEmptySrcNoop(t *testing.T) {
	a := MustNewMatrix[int64](8, 8)
	_ = a.SetElement(1, 1, 5)
	before := a.Dup()
	empty := MustNewMatrix[int64](8, 8)
	if err := AddAssign(a, empty, Plus[int64]().Op); err != nil {
		t.Fatal(err)
	}
	if !Equal(a, before) {
		t.Fatal("AddAssign with empty src changed dst")
	}
}

func TestSumOfLevels(t *testing.T) {
	// Sum is the paper's query step: A = Σ Ai.
	var levels []*Matrix[int64]
	want := MustNewMatrix[int64](16, 16)
	r := rand.New(rand.NewSource(17))
	for l := 0; l < 4; l++ {
		m := randMatrix(r, 16, 16, 40)
		levels = append(levels, m)
		if err := AddAssign(want, m, Plus[int64]().Op); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Sum(levels...)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, want) {
		t.Fatal("Sum != fold of AddAssign")
	}
	// Sum must not mutate its operands.
	if err := levels[0].checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSumRejectsNoOperands(t *testing.T) {
	if _, err := Sum[int64](); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("got %v", err)
	}
}

func TestSumSingleOperandIsCopy(t *testing.T) {
	a := MustNewMatrix[int64](4, 4)
	_ = a.SetElement(0, 0, 1)
	s, err := Sum(a)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.SetElement(0, 0, 10)
	s.Wait()
	v, _ := a.ExtractElement(0, 0)
	if v != 1 {
		t.Fatalf("Sum aliased operand: %d", v)
	}
}

func TestNilOperatorRejected(t *testing.T) {
	a := MustNewMatrix[int64](4, 4)
	b := MustNewMatrix[int64](4, 4)
	if _, err := EWiseAdd(a, b, nil); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("EWiseAdd nil op: %v", err)
	}
	if err := AddAssign(a, b, nil); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("AddAssign nil op: %v", err)
	}
}
