package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// stamp is what two results files must share to be comparable, plus what
// identifies the build that produced them.
type stamp struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs"`
	Sizes      sizes   `json:"sizes"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
}

// series is one metric on one workload across a results file's runs.
type series struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Values  []float64 `json:"values"`
	Samples int       `json:"samples,omitempty"` // behind a percentile, in the last run
	Median  float64   `json:"median"`
	Spread  float64   `json:"spread"` // (Q3 - Q1) / median over Values
}

func (s *series) sampleNote() string {
	if s.Samples == 0 {
		return ""
	}
	return fmt.Sprintf("  (%d samples per run)", s.Samples)
}

type workloadResults struct {
	EndToEnd map[string]*series `json:"end_to_end"` // the workload's gates, one value per untraced run
	PerLayer map[string]*series `json:"per_layer"`  // from the one traced run
}

// failedShare is (failed + refused + wrong-answer operations) ÷ attempted, per
// run. A driver-mode run carries it as the result line's failed and
// attempted; a results file keeps it as one more end-to-end series.
var failedShare = metricDef{Name: "failed_share", Unit: "ratio", Better: "lower"}

type results struct {
	Note      string                      `json:"note,omitempty"`
	Stamp     stamp                       `json:"stamp"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

func newStamp(e *env, seed uint64, runs int) stamp {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = e.srcDir
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return stamp{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: e.seconds.Seconds(),
		Runs: runs, Sizes: e.sz, GoVersion: runtime.Version(), Kernel: strings.TrimSpace(string(kernel)), Commit: commit,
	}
}

// fullRun measures every workload: runs untraced runs (run i on seed+i) and
// one traced run, prints every metric with its unit, writes results.json
// and the trace files, and ends with the derived paper line.
func fullRun(e *env, con *contract, seed uint64, runs int) int {
	res := results{Stamp: newStamp(e, seed, runs), Workloads: make(map[string]*workloadResults)}
	for _, name := range workloadNames(con) {
		wr := &workloadResults{EndToEnd: make(map[string]*series), PerLayer: make(map[string]*series)}
		res.Workloads[name] = wr
		for i := 0; i <= runs; i++ {
			traced := i == runs
			failed0, attempted0 := e.failed.Load(), e.attempted.Load()
			vals, err := e.measure(con, name, seed+uint64(i%max(runs, 1)), traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			defs, into := con.gates(name), wr.EndToEnd
			if traced {
				defs, into = con.PerLayer, wr.PerLayer
			} else {
				defs = append(defs, failedShare)
				vals[failedShare.Name] = float64(e.failed.Load()-failed0) / float64(e.attempted.Load()-attempted0)
			}
			metrics, err := project(defs, vals, !traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			for _, d := range defs {
				s := into[d.Name]
				if s == nil {
					s = &series{Unit: d.Unit, Better: d.Better}
					into[d.Name] = s
				}
				s.Values = append(s.Values, metrics[d.Name].Value)
				s.Samples = e.samples[d.Name]
			}
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d done (failed %d of %d operations so far)\n",
				name, i+1, runs+1, e.failed.Load(), e.attempted.Load())
		}
		for _, group := range []map[string]*series{wr.EndToEnd, wr.PerLayer} {
			for _, s := range group {
				s.Median, s.Spread = median(s.Values), spread(s.Values)
			}
		}
	}
	res.print(os.Stdout, con)
	data, err := json.MarshalIndent(res, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(e.outDir, "results.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	failed, attempted := e.failed.Load(), e.attempted.Load()
	fmt.Printf("\nfailed_share %d / %d operations = %g\n", failed, attempted, float64(failed)/float64(max(attempted, 1)))
	if failed > 0 {
		return 1
	}
	return 0
}

// print is the report: every metric by name with its unit, workload by
// workload, then the paper's derived line. The paper line is printed, never
// stored: it is an extrapolation, not a measurement.
func (r *results) print(w io.Writer, con *contract) {
	for _, name := range workloadNames(con) {
		wr := r.Workloads[name]
		fmt.Fprintf(w, "\n== %s: end to end, median of %d runs (spread = IQR / median) ==\n", name, r.Stamp.Runs)
		for _, d := range append(con.gates(name), failedShare) {
			s := wr.EndToEnd[d.Name]
			fmt.Fprintf(w, "%-18s %-40s %16.6g %-10s spread %.3f%s\n", name, d.Name, s.Median, s.Unit, s.Spread, s.sampleNote())
		}
		fmt.Fprintf(w, "== %s: per layer, one traced run ==\n", name)
		for _, d := range con.PerLayer {
			s := wr.PerLayer[d.Name]
			note := s.sampleNote()
			if unresolvedFloor(d.Name, s.Median) {
				note = "  (unresolved: at the stage histograms' 100 µs floor)"
			}
			fmt.Fprintf(w, "%-18s %-40s %16.6g %s%s\n", name, d.Name, s.Median, s.Unit, note)
		}
	}
	if lib := r.Workloads["lib_ingest"]; lib != nil && lib.EndToEnd["inserts_per_s"] != nil {
		rate := lib.EndToEnd["inserts_per_s"].Median
		fmt.Fprintf(w, "\npaper line: %.3g inserts/s per instance x 31,000 instances = %.3g inserts/s against the paper's 75e9 (NumCPU %d, GOMAXPROCS %d)\n",
			rate, rate*31000, r.Stamp.NumCPU, r.Stamp.GOMAXPROCS)
	}
}
