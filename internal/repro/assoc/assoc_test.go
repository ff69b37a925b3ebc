package assoc

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hhgb/internal/gb"
)

func triple(r *rand.Rand, n int, keys int) (rows, cols []string, vals []float64) {
	for k := 0; k < n; k++ {
		rows = append(rows, fmt.Sprintf("r%03d", r.Intn(keys)))
		cols = append(cols, fmt.Sprintf("c%03d", r.Intn(keys)))
		vals = append(vals, float64(r.Intn(9)+1))
	}
	return
}

func TestFromTriplesBasics(t *testing.T) {
	a, err := FromTriples(
		[]string{"b", "a", "b"},
		[]string{"y", "x", "y"},
		[]float64{1, 2, 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 2 {
		t.Fatalf("NNZ = %d", a.NNZ())
	}
	v, ok := a.Value("b", "y")
	if !ok || v != 11 {
		t.Fatalf("A(b,y) = %v, %v", v, ok)
	}
	if _, ok := a.Value("a", "y"); ok {
		t.Fatal("phantom entry (a,y)")
	}
	if _, ok := a.Value("zzz", "y"); ok {
		t.Fatal("phantom row key")
	}
	rk := a.RowKeys()
	if len(rk) != 2 || rk[0] != "a" || rk[1] != "b" {
		t.Fatalf("row keys = %v", rk)
	}
}

func TestFromTriplesErrors(t *testing.T) {
	if _, err := FromTriples([]string{"a"}, []string{"b", "c"}, []float64{1}); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("got %v", err)
	}
	empty, err := FromTriples(nil, nil, nil)
	if err != nil || empty.NNZ() != 0 {
		t.Fatalf("empty: %v, %v", empty, err)
	}
}

func TestTriplesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(60))
	f := func() bool {
		rows, cols, vals := triple(r, 50, 20)
		a, err := FromTriples(rows, cols, vals)
		if err != nil {
			return false
		}
		tr, tc, tv := a.Triples()
		b, err := FromTriples(tr, tc, tv)
		if err != nil {
			return false
		}
		return Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAddMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		ar, ac, av := triple(r, 40, 15)
		br, bc, bv := triple(r, 40, 15)
		a, _ := FromTriples(ar, ac, av)
		b, _ := FromTriples(br, bc, bv)
		sum, err := Add(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ref := make(map[[2]string]float64)
		for k := range ar {
			ref[[2]string{ar[k], ac[k]}] += av[k]
		}
		for k := range br {
			ref[[2]string{br[k], bc[k]}] += bv[k]
		}
		if sum.NNZ() != len(ref) {
			t.Fatalf("trial %d: NNZ %d, want %d", trial, sum.NNZ(), len(ref))
		}
		for key, want := range ref {
			got, ok := sum.Value(key[0], key[1])
			if !ok || got != want {
				t.Fatalf("trial %d: %v = %v (%v), want %v", trial, key, got, ok, want)
			}
		}
	}
}

func TestAddWithEmpty(t *testing.T) {
	a, _ := FromTriples([]string{"r"}, []string{"c"}, []float64{5})
	e := New()
	s1, err := Add(a, e)
	if err != nil || !Equal(s1, a) {
		t.Fatalf("a + empty: %v, %v", s1, err)
	}
	s2, err := Add(e, a)
	if err != nil || !Equal(s2, a) {
		t.Fatalf("empty + a: %v, %v", s2, err)
	}
	s3, err := Add(e, New())
	if err != nil || s3.NNZ() != 0 {
		t.Fatalf("empty + empty: %v, %v", s3, err)
	}
	// The result must not alias a.
	if v, _ := s1.Value("r", "c"); v != 5 {
		t.Fatalf("copy value = %v", v)
	}
}

func TestAddCommutativeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	f := func() bool {
		ar, ac, av := triple(r, 30, 12)
		br, bc, bv := triple(r, 30, 12)
		a, _ := FromTriples(ar, ac, av)
		b, _ := FromTriples(br, bc, bv)
		ab, err1 := Add(a, b)
		ba, err2 := Add(b, a)
		return err1 == nil && err2 == nil && Equal(ab, ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSums(t *testing.T) {
	a, _ := FromTriples(
		[]string{"r1", "r1", "r2"},
		[]string{"c1", "c2", "c1"},
		[]float64{1, 2, 4},
	)
	tot, err := a.Total()
	if err != nil || tot != 7 {
		t.Fatalf("total = %v, %v", tot, err)
	}
	if tot, err := New().Total(); err != nil || tot != 0 {
		t.Fatalf("empty total = %v, %v", tot, err)
	}
}

func TestHierLinearity(t *testing.T) {
	// Hierarchical D4M must agree with flat D4M accumulation — the same
	// linearity invariant as the GraphBLAS cascade.
	r := rand.New(rand.NewSource(63))
	h, err := NewHier([]int{20, 100})
	if err != nil {
		t.Fatal(err)
	}
	flat := New()
	for step := 0; step < 40; step++ {
		rows, cols, vals := triple(r, 15, 30)
		if err := h.Update(rows, cols, vals); err != nil {
			t.Fatal(err)
		}
		batch, _ := FromTriples(rows, cols, vals)
		flat, err = Add(flat, batch)
		if err != nil {
			t.Fatal(err)
		}
	}
	q, err := h.Query()
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(q, flat) {
		t.Fatal("hierarchical D4M != flat D4M")
	}
	if h.Updates() != 40*15 {
		t.Fatalf("updates = %d", h.Updates())
	}
	if h.cascades[0] == 0 {
		t.Fatal("no cascades despite small cut")
	}
}

func TestHierCutBound(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	cuts := []int{25}
	h, _ := NewHier(cuts)
	for step := 0; step < 30; step++ {
		rows, cols, vals := triple(r, 10, 100)
		if err := h.Update(rows, cols, vals); err != nil {
			t.Fatal(err)
		}
		if got := h.levels[0].NNZ(); got > cuts[0] {
			t.Fatalf("step %d: level 0 nnz %d > cut %d", step, got, cuts[0])
		}
	}
}

func TestHierValidation(t *testing.T) {
	if _, err := NewHier([]int{0}); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("zero cut: %v", err)
	}
	h, err := NewHier(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Update([]string{"a"}, []string{"b"}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	n, err := h.NNZ()
	if err != nil || n != 1 {
		t.Fatalf("NNZ = %d, %v", n, err)
	}
}

func TestStringSummary(t *testing.T) {
	a, _ := FromTriples([]string{"r"}, []string{"c"}, []float64{1})
	if a.String() == "" {
		t.Fatal("empty string")
	}
}
