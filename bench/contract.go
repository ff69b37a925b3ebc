package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it. The file is the
// only list of metric names and units: the harness looks every value up in
// it, so the two cannot drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// issueBound is the share by which ISSUE 12 lets an end-to-end metric worsen
// before a change counts as a regression. -compare judges every gated row by
// it, and calls a row whose own run-to-run spread is wider unresolved. The
// bounds in BENCHMARK.json are the driver's: it rejects a benchmark whose
// spread on its host exceeds them, so they follow the spread measured here.
const issueBound = 0.10

// gatedOn lists the end-to-end metrics that are not in BENCHMARK.json's
// end_to_end list, with the workloads they are reported on. The file cannot
// say "on these workloads": a run with --trace 0 owes the driver every
// end_to_end metric of the file, never 0, whatever the workload, and the
// driver refuses a benchmark whose ten runs spread one wider than 0.25. So
// that list holds the metrics every workload has and this host repeats, and
// these — the issue's metrics that exist on some workloads only, the open
// loop's latencies under load, the median cycle — are declared per_layer
// under the layer that owns them. Full mode records them on every untraced
// run all the same, and -compare gates them beside the others.
var gatedOn = map[string][]string{
	"bench.inserts_per_s_median":     {"lib_ingest", "wire_durable", "read_only"},
	"server.capacity_per_s":          {"wire_stream_mixed"},
	"hhgbclient.ack_p50_ms":          {"wire_stream_mixed"},
	"hhgbclient.ack_p99_ms":          {"wire_stream_mixed"},
	"hhgbclient.range_lookup_p50_us": {"wire_stream_mixed"},
	"hhgbclient.range_lookup_p99_us": {"wire_stream_mixed"},
	"hhgbclient.lookup_p99_us":       {"read_only"},
	"hhgbclient.topk_p50_ms":         {"read_only", "wire_stream_mixed"},
	"hhgbclient.topk_p95_ms":         {"read_only"},
	"hhgbclient.summary_p50_ms":      {"read_only", "wire_stream_mixed"},
	"server.checkpoint_s":            {"wire_durable"},
	"server.recover_s":               {"wire_durable"},
	"wal.disk_bytes_per_entry":       {"wire_durable"},
}

// gates returns the metrics that are end to end on workload: the file's
// end_to_end list, then what gatedOn adds, in the file's order.
func (c *contract) gates(workload string) []metricDef {
	defs := append([]metricDef(nil), c.EndToEnd...)
	for _, d := range c.PerLayer {
		if slices.Contains(gatedOn[d.Name], workload) {
			defs = append(defs, d)
		}
	}
	return defs
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a driver-mode run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// project picks defs' metrics out of vals. An end-to-end metric must have
// been measured; a per-layer metric the workload does not exercise reads 0,
// which is the prediction "this layer does nothing here" made visible.
func project(defs []metricDef, vals map[string]float64, required bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && required {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// undeclared lists the measured names BENCHMARK.json does not declare.
func (c *contract) undeclared(vals map[string]float64) []string {
	known := make(map[string]bool)
	for _, d := range c.EndToEnd {
		known[d.Name] = true
	}
	for _, d := range c.PerLayer {
		known[d.Name] = true
	}
	var extra []string
	for name := range vals {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	return extra
}
