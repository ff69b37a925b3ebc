package main

import (
	"io"
	"regexp"
	"testing"
	"time"
)

// TestSmoke runs every workload at 1/200 size, traced, and holds the harness
// and BENCHMARK.json together: every declared name is well formed and has a
// unit, every end-to-end metric is measured on every workload, the harness
// measures nothing the file does not declare (measure fails on that), and no
// declared per-layer metric is unknown to every workload. Workloads that
// start hhgb-serve are skipped under -short.
func TestSmoke(t *testing.T) {
	con, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	declared := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), con.EndToEnd...), con.PerLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q with unit %q is malformed", d.Name, d.Unit)
		}
		if declared[d.Name] {
			t.Errorf("metric %q is declared twice", d.Name)
		}
		declared[d.Name] = true
	}
	for name := range gatedOn {
		if !declared[name] {
			t.Errorf("gated metric %q is not declared in BENCHMARK.json", name)
		}
	}
	if len(con.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(con.Workloads), len(workloads))
	}

	e, err := newEnv(".", t.TempDir(), "", 200, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	measured := make(map[string]bool)
	for _, wl := range workloadNames(con) {
		w, ok := workloads[wl]
		if !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the harness does not have", wl)
			continue
		}
		if w.wire && testing.Short() {
			continue
		}
		vals, err := e.measure(con, wl, 1, true)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		for k := range vals {
			measured[k] = true
		}
		for _, d := range con.EndToEnd {
			if vals[d.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, d.Name, vals[d.Name])
			}
		}
		for _, d := range con.gates(wl) {
			if _, ok := vals[d.Name]; !ok {
				t.Errorf("%s: gated metric %s was not measured", wl, d.Name)
			}
		}
		if _, err := project(con.PerLayer, vals, false); err != nil {
			t.Errorf("%s: %v", wl, err)
		}
	}
	if failed := e.failed.Load(); failed != 0 {
		t.Errorf("%d of %d operations failed", failed, e.attempted.Load())
	}
	if !testing.Short() {
		for _, d := range con.PerLayer {
			if !measured[d.Name] {
				t.Errorf("per-layer metric %s is declared but no workload measures it", d.Name)
			}
		}
	}
}

// TestCompareMissingRows: a results file that lacks a workload or a gated
// metric the other has cannot pass as "no regression".
func TestCompareMissingRows(t *testing.T) {
	row := func() *series { return &series{Better: "lower", Values: []float64{1, 1}, Median: 1} }
	full := func() *results {
		return &results{Workloads: map[string]*workloadResults{
			"w1": {EndToEnd: map[string]*series{"m1": row(), "m2": row()}},
			"w2": {EndToEnd: map[string]*series{"m1": row()}},
		}}
	}
	if code := compareResults(full(), full(), io.Discard); code != 0 {
		t.Errorf("equal files: exit %d, want 0", code)
	}
	noMetric, noWorkload := full(), full()
	delete(noMetric.Workloads["w1"].EndToEnd, "m2")
	delete(noWorkload.Workloads, "w2")
	for name, short := range map[string]*results{"metric": noMetric, "workload": noWorkload} {
		if code := compareResults(full(), short, io.Discard); code != 1 {
			t.Errorf("B lacks a %s: exit %d, want 1", name, code)
		}
		if code := compareResults(short, full(), io.Discard); code != 1 {
			t.Errorf("A lacks a %s: exit %d, want 1", name, code)
		}
	}
	worse := full()
	worse.Workloads["w2"].EndToEnd["m1"].Median = 1.2
	if code := compareResults(full(), worse, io.Discard); code != 1 {
		t.Errorf("B 20%% worse: exit %d, want 1", code)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
