package main

import (
	"math"
	"strconv"
	"strings"
)

// promSample returns the value of the exposition line "name value" (name
// includes any label set, exactly as rendered) and whether it was present.
func promSample(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v, err == nil
		}
	}
	return 0, false
}

// promP50 interpolates the median, in seconds, of the histogram series
// family{label="value"} from its cumulative buckets. A median in the first
// bucket is below what the instrument resolves; the interpolated value is
// reported as it is and flagged where it is printed.
func promP50(text, family, label, value string) float64 {
	prefix := family + "_bucket{" + label + `="` + value + `",le="`
	var bounds, counts []float64
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		le, cnt, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		b := math.Inf(1)
		if le != "+Inf" {
			b, _ = strconv.ParseFloat(le, 64)
		}
		c, _ := strconv.ParseFloat(strings.TrimSpace(cnt), 64)
		bounds, counts = append(bounds, b), append(counts, c)
	}
	if len(counts) == 0 || counts[len(counts)-1] == 0 {
		return 0
	}
	half := counts[len(counts)-1] / 2
	for i, c := range counts {
		if c < half {
			continue
		}
		lo, below := 0.0, 0.0
		if i > 0 {
			lo, below = bounds[i-1], counts[i-1]
		}
		if math.IsInf(bounds[i], 1) {
			return lo
		}
		return lo + (bounds[i]-lo)*(half-below)/(c-below)
	}
	return 0
}

var ingestStages = []string{"decode", "queue", "partition", "shard_wait", "wal", "apply", "ack"}
var queryStages = []string{"plan", "fanout", "merge", "encode"}

// serverMetrics turns one scrape of the child's /metrics into the server.*
// per-layer values and adds them to vals.
func serverMetrics(text string, vals map[string]float64) {
	for _, st := range ingestStages {
		vals["server.stage_"+st+"_p50_us"] = 1e6 * promP50(text, "hhgb_server_ingest_stage_seconds", "stage", st)
	}
	for _, st := range queryStages {
		vals["server.q_"+st+"_p50_us"] = 1e6 * promP50(text, "hhgb_query_stage_seconds", "stage", st)
	}
	vals["server.overloads"], _ = promSample(text, "hhgb_server_overloads_total")
	vals["hhgbclient.retransmits"], _ = promSample(text, "hhgb_server_duplicates_dropped_total")
}
