package cluster

import (
	"strings"
	"testing"
)

func TestEngSuffixes(t *testing.T) {
	cases := map[float64]string{
		5:       "5.00",
		1500:    "1.50K",
		2.5e6:   "2.50M",
		7.5e10:  "75.00G",
		1.2e13:  "12.00T",
		-2.5e6:  "-2.50M",
		999.999: "1000.00",
	}
	for v, want := range cases {
		if got := Eng(v); got != want {
			t.Errorf("Eng(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestSeriesAdd(t *testing.T) {
	var s Series
	s.Add(1, 2)
	s.Add(3, 4)
	if len(s.Points) != 2 || s.Points[1] != (Point{3, 4}) {
		t.Fatalf("points = %v", s.Points)
	}
}

func TestFormatTableAlignsAndUnions(t *testing.T) {
	a := Series{Name: "alpha", Points: []Point{{1, 1e6}, {10, 1e7}}}
	b := Series{Name: "beta", Points: []Point{{10, 5e5}, {100, 5e6}}}
	out := FormatTable("servers", []Series{a, b})
	if !strings.Contains(out, "servers") || !strings.Contains(out, "alpha") || !strings.Contains(out, "beta") {
		t.Fatalf("missing headers:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// header + separator + 3 distinct x values
	if len(lines) != 5 {
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "1.00M") || !strings.Contains(out, "500.00K") {
		t.Fatalf("values missing:\n%s", out)
	}
}

func TestPlotLogLog(t *testing.T) {
	s := Series{Name: "hier-graphblas"}
	for _, p := range []Point{{1, 2.8e7}, {10, 2.6e8}, {100, 2.4e9}, {1100, 2.3e10}} {
		s.Points = append(s.Points, p)
	}
	out := PlotLogLog([]Series{s}, 60, 16)
	if !strings.Contains(out, "hier-graphblas") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Fatalf("markers missing:\n%s", out)
	}
	// Monotone series: marker column increases with row going up.
	if strings.Count(out, "*") < 3 {
		t.Fatalf("too few markers:\n%s", out)
	}
}

func TestPlotLogLogDegenerate(t *testing.T) {
	if out := PlotLogLog(nil, 40, 10); !strings.Contains(out, "no positive data") {
		t.Fatalf("empty plot: %q", out)
	}
	neg := Series{Name: "neg", Points: []Point{{-1, -5}}}
	if out := PlotLogLog([]Series{neg}, 40, 10); !strings.Contains(out, "no positive data") {
		t.Fatalf("negative-only plot: %q", out)
	}
	single := Series{Name: "one", Points: []Point{{5, 5}}}
	out := PlotLogLog([]Series{single}, 40, 10)
	if !strings.Contains(out, "one") {
		t.Fatalf("single point plot:\n%s", out)
	}
}

func TestPlotMinimumDimensions(t *testing.T) {
	s := Series{Name: "s", Points: []Point{{1, 1}, {10, 10}}}
	out := PlotLogLog([]Series{s}, 1, 1) // clamped to minimums
	if out == "" {
		t.Fatal("empty plot")
	}
}
