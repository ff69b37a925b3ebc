package trace

import (
	"errors"
	"testing"
	"testing/quick"

	"hhgb/internal/gb"
	"hhgb/internal/hier"
)

func TestFormatIPv4(t *testing.T) {
	cases := map[string]uint32{
		"0.0.0.0":         0,
		"255.255.255.255": 0xffffffff,
		"10.0.0.1":        0x0a000001,
		"192.168.1.254":   0xc0a801fe,
	}
	for s, ip := range cases {
		if FormatIPv4(ip) != s {
			t.Fatalf("FormatIPv4(%x) = %q", ip, FormatIPv4(ip))
		}
	}
}

func TestIndexIPv4Bounds(t *testing.T) {
	if _, err := IndexToIPv4(IPv4Space); !errors.Is(err, gb.ErrIndexOutOfBounds) {
		t.Fatalf("got %v", err)
	}
	ip, err := IndexToIPv4(IPv4ToIndex(12345))
	if err != nil || ip != 12345 {
		t.Fatalf("round trip = %d, %v", ip, err)
	}
}

func TestAnonymizerBijective(t *testing.T) {
	a := NewAnonymizer(0xfeedface)
	f := func(ip uint32) bool {
		return a.Deanon(a.Anon(ip)) == ip
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestAnonymizerActuallyPermutes(t *testing.T) {
	a := NewAnonymizer(1)
	same := 0
	for ip := uint32(0); ip < 10000; ip++ {
		if a.Anon(ip) == ip {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("%d/10000 fixed points", same)
	}
}

func TestAnonymizerKeyed(t *testing.T) {
	a1 := NewAnonymizer(1)
	a2 := NewAnonymizer(2)
	diff := 0
	for ip := uint32(0); ip < 1000; ip++ {
		if a1.Anon(ip) != a2.Anon(ip) {
			diff++
		}
	}
	if diff < 990 {
		t.Fatalf("keys nearly identical: %d/1000 differ", diff)
	}
}

func TestGeneratorDeterministicAndPositive(t *testing.T) {
	g1, err := NewGenerator(7)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(7)
	for k := 0; k < 1000; k++ {
		f1, f2 := g1.Next(), g2.Next()
		if f1 != f2 {
			t.Fatalf("flow %d differs: %+v vs %+v", k, f1, f2)
		}
		if f1.Packets == 0 {
			t.Fatal("zero-packet flow")
		}
	}
	batch := g1.Batch(50)
	if len(batch) != 50 {
		t.Fatalf("batch = %d", len(batch))
	}
}

func TestWindowRotation(t *testing.T) {
	w, err := NewWindow(100, hier.Config{Cuts: []int{32}})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := NewGenerator(3)
	if err := w.Observe(g.Batch(250)); err != nil {
		t.Fatal(err)
	}
	if got := len(w.Completed()); got != 2 {
		t.Fatalf("completed windows = %d, want 2", got)
	}
	if w.inWindow != 50 {
		t.Fatalf("current fill = %d, want 50", w.inWindow)
	}
	// Mass conservation: packets across completed + current == generated.
	var total uint64
	for _, m := range w.Completed() {
		v, err := gb.ReduceScalar(m, gb.Plus[uint64]())
		if err != nil {
			t.Fatal(err)
		}
		total += v
	}
	cur, err := w.current.Query()
	if err != nil {
		t.Fatal(err)
	}
	v, _ := gb.ReduceScalar(cur, gb.Plus[uint64]())
	total += v

	g2, _ := NewGenerator(3)
	var want uint64
	for _, f := range g2.Batch(250) {
		want += f.Packets
	}
	if total != want {
		t.Fatalf("packet mass %d != generated %d", total, want)
	}
}

func TestWindowExactBoundary(t *testing.T) {
	w, err := NewWindow(50, hier.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := NewGenerator(9)
	if err := w.Observe(g.Batch(100)); err != nil {
		t.Fatal(err)
	}
	if len(w.Completed()) != 2 || w.inWindow != 0 {
		t.Fatalf("windows = %d, fill = %d", len(w.Completed()), w.inWindow)
	}
}

func TestWindowValidation(t *testing.T) {
	if _, err := NewWindow(0, hier.Config{}); !errors.Is(err, gb.ErrInvalidValue) {
		t.Fatalf("got %v", err)
	}
}
