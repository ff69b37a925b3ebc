package metrics

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return b.String()
}

func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "Events seen.")
	c.Inc()
	c.Add(4)
	r.GaugeFunc("test_depth", "Queue depth.", func() int64 { return 5 })
	out := render(t, r)
	for _, want := range []string{
		"# HELP test_events_total Events seen.\n",
		"# TYPE test_events_total counter\n",
		"test_events_total 5\n",
		"# TYPE test_depth gauge\n",
		"test_depth 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "x")
	b := r.Counter("test_total", "x")
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	l1 := r.Counter("test_labeled_total", "x", L("op", "a"))
	l2 := r.Counter("test_labeled_total", "x", L("op", "b"))
	if l1 == l2 {
		t.Fatal("different labels must return different series")
	}
	if got := r.Counter("test_labeled_total", "x", L("op", "a")); got != l1 {
		t.Fatal("re-registration with same labels must return the original")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge over a counter must panic")
		}
	}()
	r.GaugeFunc("test_total", "x", func() int64 { return 0 })
}

func TestFuncBackedSum(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_applied_total", "x", func() int64 { return 3 })
	r.CounterFunc("test_applied_total", "x", func() int64 { return 4 })
	out := render(t, r)
	if !strings.Contains(out, "test_applied_total 7\n") {
		t.Fatalf("func-backed counters must sum:\n%s", out)
	}
}

func TestHistogramRender(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "x", []float64{0.1, 1}, L("op", "q"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(99)
	out := render(t, r)
	for _, want := range []string{
		`test_seconds_bucket{op="q",le="0.1"} 1`,
		`test_seconds_bucket{op="q",le="1"} 3`,
		`test_seconds_bucket{op="q",le="+Inf"} 4`,
		`test_seconds_sum{op="q"} 100.05`,
		`test_seconds_count{op="q"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 4 {
		t.Errorf("Count = %d, want 4", h.Count())
	}
}

func TestIntegralValuesRenderAsIntegers(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_big_total", "x", func() int64 { return 2000000 })
	out := render(t, r)
	if !strings.Contains(out, "test_big_total 2000000\n") {
		t.Fatalf("large integral counters must not render in e-notation:\n%s", out)
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "x").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "test_total 1") {
		t.Errorf("body missing sample:\n%s", rec.Body.String())
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("test_total", "x")
			h := r.Histogram("test_seconds", "x", nil)
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) * 0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("test_total", "x").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("test_seconds", "x", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

// TestExpositionParses runs every rendered line through
// ValidateExposition — the same well-formedness contract the CI smoke
// asserts with curl.
func TestExpositionParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_events_total", "Events with \"quotes\" and \\ slash.").Add(3)
	r.GaugeFunc("test_depth", "d", func() int64 { return -2 })
	r.Histogram("test_seconds", "h", nil, L("op", `quo"te`)).Observe(0.2)
	r.GaugeFunc("test_sampled", "s", func() int64 { return 11 })
	out := render(t, r)
	if err := ValidateExposition(out); err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, out)
	}
}
