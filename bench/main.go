// Command bench is the repository's benchmark: four named workloads over one
// seeded R-MAT stream family, the end-to-end metrics a user of the store
// sees, and a per-layer ladder measured by a separate traced run. See
// README.md in this directory; BENCHMARK.json at the repository root is the
// list of workloads and metrics.
//
// Driver mode (one run, one JSON result on the last line):
//
//	bench --workload NAME --seed N --seconds S --trace 0|1
//
// Full mode (every workload, -runs untraced runs and one traced run each;
// writes out/results.json and out/trace-NAME.json, prints the report):
//
//	bench [-runs N] [-seed N] [-seconds S]
//
// Comparison of two results files:
//
//	bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// workload is one named traffic mix: the pass that measures it, untraced
// (rec == nil) or with benchmark-side spans, the layer replay that feeds its
// generated input bottom-up through each layer's public functions, and how
// many stream entries it needs for a run of the given length.
type workload struct {
	run    func(e *env, in *stream, rec *spanRec) (map[string]float64, error)
	replay func(e *env, in *stream, rec *spanRec, pass map[string]float64) (map[string]float64, error)
	edges  func(sz sizes, secs float64) int
	wire   bool // runs hhgb-serve as a child process
}

var workloads = map[string]workload{
	"lib_ingest": {run: runLibIngest, replay: replayLib,
		edges: func(sz sizes, _ float64) int { return sz.LibEdges }},
	"wire_durable": {run: runWireDurable, replay: replayDurable, wire: true,
		edges: func(sz sizes, _ float64) int { return sz.DurableEdges + sz.DurableTail }},
	"wire_stream_mixed": {run: runWireStreamMixed, replay: replayStream, wire: true,
		edges: func(sz sizes, secs float64) int {
			return (scheduleFrames(sz, secs) + sz.StreamProbe*sz.StreamFrames) * sz.StreamFrame
		}},
	"read_only": {run: runReadOnly, replay: replayRead, wire: true,
		edges: func(sz sizes, _ float64) int { return sz.ReadPreload }},
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name    = flag.String("workload", "", "run this one workload and print one JSON result line (driver mode)")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 0, "length of a run's timed section (0 = run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		runs    = flag.Int("runs", 3, "full mode: untraced runs per workload (run i uses seed+i)")
		dir     = flag.String("dir", "", "the benchmark's directory (default: bench or .)")
		serve   = flag.String("serve", "", "prebuilt hhgb-serve (default: built on first use)")
		compare = flag.Bool("compare", false, "compare two results files: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if *dir == "" {
		*dir = "."
		if _, err := os.Stat("bench/main.go"); err == nil {
			*dir = "bench"
		}
	}
	con, err := loadContract(filepath.Join(*dir, "..", "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = float64(con.RunSeconds)
	}
	e, err := newEnv(*dir, filepath.Join(*dir, "out"), *serve, 1, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer e.cleanup()
	// A benchmark that is interrupted still stops what it started.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()

	if *name != "" {
		return driverRun(e, con, *name, *seed, *trace == 1)
	}
	return fullRun(e, con, *seed, *runs)
}

// newEnv prepares a benchmark process whose sources are in dir and whose
// results, traces and scratch go under out. div is 1 for a measurement; the
// smoke test divides every workload size by 200.
func newEnv(dir, out, serve string, div int, seconds time.Duration) (*env, error) {
	e := &env{sz: sizesFor(div), seconds: seconds, serveBin: serve}
	var err error
	if e.srcDir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	if e.outDir, err = filepath.Abs(out); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	// Scratch (durable directories, a self-built server) lives under out/,
	// inside the checkout, on the same filesystem the results go to.
	if e.tmpDir, err = os.MkdirTemp(e.outDir, "tmp-"); err != nil {
		return nil, err
	}
	return e, nil
}

// needServe builds hhgb-serve once, unless the caller supplied one.
func (e *env) needServe() error {
	if e.serveBin != "" {
		return nil
	}
	bin := filepath.Join(e.tmpDir, "hhgb-serve")
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "hhgb/cmd/hhgb-serve")
	cmd.Dir = e.srcDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building hhgb-serve: %v\n%s", err, out)
	}
	e.serveBin = bin
	return nil
}

// measure makes one run of a workload: generate the input from the seed, one
// untraced pass, and — traced — a second pass with spans on plus the layer
// replay. It returns every metric the run measured, by name.
func (e *env) measure(con *contract, name string, seed uint64, traced bool) (map[string]float64, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if w.wire {
		if err := e.needServe(); err != nil {
			return nil, err
		}
	}
	e.seed = seed
	in, err := generate(seed, w.edges(e.sz, e.seconds.Seconds()), e.sz.SetSize)
	if err != nil {
		return nil, err
	}
	// Both passes start from the same heap: collected, and with free pages
	// returned, so the second does not inherit what the first one grew.
	debug.FreeOSMemory()
	vals, err := w.run(e, in, nil)
	if err != nil {
		return nil, err
	}
	vals["loadgen.gen_ns_per_entry"] = in.genNs
	if traced {
		rec := newSpanRec(name)
		debug.FreeOSMemory()
		tv, err := w.run(e, in, rec)
		if err != nil {
			return nil, err
		}
		// The untraced pass is the measurement; the traced pass adds only
		// what needs tracing on: server-side histograms and span totals.
		for k, v := range tv {
			if _, ok := vals[k]; !ok {
				vals[k] = v
			}
		}
		vals["flight.trace_overhead_share"] = 1 - tv["inserts_per_s"]/vals["inserts_per_s"]
		for _, call := range []string{"append", "append_at"} {
			if ns, count := rec.total("hhgbclient", call); count > 0 {
				vals["hhgbclient.append_ns_per_entry"] = float64(ns) / float64(count)
			}
		}
		lv, err := w.replay(e, in, rec, vals)
		if err != nil {
			return nil, fmt.Errorf("%s layer replay: %w", name, err)
		}
		for k, v := range lv {
			vals[k] = v
		}
		if err := rec.write(filepath.Join(e.outDir, "trace-"+name+".json")); err != nil {
			return nil, err
		}
	}
	if extra := con.undeclared(vals); len(extra) > 0 {
		return nil, fmt.Errorf("measured metrics %v are not declared in BENCHMARK.json", extra)
	}
	return vals, nil
}

// driverRun is one run under the driver's contract: every metric by name
// with its unit, then the JSON result as the last line of standard output.
func driverRun(e *env, con *contract, name string, seed uint64, traced bool) int {
	vals, err := e.measure(con, name, seed, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defs, required := con.EndToEnd, true
	if traced {
		defs, required = con.PerLayer, false
	}
	metrics, err := project(defs, vals, required)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printMetrics(os.Stdout, name, defs, metrics, e.samples)
	res := resultLine{Correct: e.failed.Load() == 0, Attempted: e.attempted.Load(), Failed: e.failed.Load(), Metrics: metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(w *os.File, workload string, defs []metricDef, metrics map[string]metricValue, samples map[string]int) {
	for _, d := range defs {
		note := ""
		if n, ok := samples[d.Name]; ok {
			note = fmt.Sprintf("  (%d samples)", n)
		}
		if unresolvedFloor(d.Name, metrics[d.Name].Value) {
			note = "  (unresolved: at the stage histograms' 100 µs floor)"
		}
		fmt.Fprintf(w, "%-18s %-40s %16.6g %s%s\n", workload, d.Name, metrics[d.Name].Value, d.Unit, note)
	}
}

// unresolvedFloor reports a server stage median that fell in the stage
// histograms' first bucket (0–100 µs): the instrument cannot resolve it.
func unresolvedFloor(name string, v float64) bool {
	return strings.HasPrefix(name, "server.") && strings.HasSuffix(name, "_p50_us") && v > 0 && v <= 100
}

func workloadNames(con *contract) []string {
	names := make([]string, 0, len(con.Workloads))
	for _, w := range con.Workloads {
		names = append(names, w.Name)
	}
	return names
}
