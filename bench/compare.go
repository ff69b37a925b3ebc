package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
)

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worsening is how much worse b is than a, as a share of a, in the metric's
// own direction: positive is worse whether lower or higher is better. From a
// median of 0 (failed_share) any change is without bound.
func worsening(better string, a, b float64) float64 {
	change := (b - a) / a
	if a == 0 && b == 0 {
		change = 0
	}
	if better == "higher" {
		return -change
	}
	return change
}

// compareFiles prints one row per (workload, metric) of two results files
// and returns 0 only when no end-to-end row is worse or unresolved. It
// refuses files measured on different machine shapes, seeds or workload
// constants: their difference would not be the code's.
func compareFiles(pathA, pathB string, w io.Writer) int {
	a, err := readResults(pathA)
	if err == nil {
		var b *results
		if b, err = readResults(pathB); err == nil {
			return compareResults(a, b, w)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// union is the sorted union of two maps' keys.
func union[V any](a, b map[string]V) []string {
	keys := slices.Collect(maps.Keys(a))
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

func compareResults(a, b *results, w io.Writer) int {
	sa, sb := a.Stamp, b.Stamp
	if sa.NumCPU != sb.NumCPU || sa.GOMAXPROCS != sb.GOMAXPROCS || sa.Seed != sb.Seed ||
		sa.Seconds != sb.Seconds || sa.Sizes != sb.Sizes {
		fmt.Fprintf(w, "refusing to compare: NumCPU %d/%d, GOMAXPROCS %d/%d, seed %d/%d, seconds %g/%g, sizes equal: %v\n",
			sa.NumCPU, sb.NumCPU, sa.GOMAXPROCS, sb.GOMAXPROCS, sa.Seed, sb.Seed, sa.Seconds, sb.Seconds, sa.Sizes == sb.Sizes)
		return 2
	}
	fmt.Fprintf(w, "A: commit %s, %d runs    B: commit %s, %d runs\n", sa.Commit, sa.Runs, sb.Commit, sb.Runs)
	fmt.Fprintf(w, "%-18s %-40s %14s %14s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "worse by", "A spread", "B spread", "bound", "verdict")
	bad := 0
	none := &workloadResults{}
	for _, name := range union(a.Workloads, b.Workloads) {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil {
			wa = none
		}
		if wb == nil {
			wb = none
		}
		for _, metric := range union(wa.EndToEnd, wb.EndToEnd) {
			x, y := wa.EndToEnd[metric], wb.EndToEnd[metric]
			if x == nil || y == nil {
				// A file that lacks a row cannot show the row did not regress.
				side := "A"
				if y == nil {
					side = "B"
				}
				fmt.Fprintf(w, "%-18s %-40s %66s  unresolved (missing in %s)\n", name, metric, "", side)
				bad++
				continue
			}
			change := worsening(x.Better, x.Median, y.Median)
			verdict := "ok"
			switch {
			case metric != failedShare.Name && (x.Median == 0 || y.Median == 0):
				// A latency of 0 is a percentile the runs held too few
				// samples for.
				verdict = "unresolved"
				bad++
			case x.Spread > issueBound || y.Spread > issueBound:
				// The runs of one side disagree by more than the bound:
				// the medians cannot settle a difference that small.
				verdict = "unresolved"
				bad++
			case change > issueBound:
				verdict = "worse"
				bad++
			}
			fmt.Fprintf(w, "%-18s %-40s %14.6g %14.6g %+8.1f%% %8.3f %8.3f %6.2f  %s\n",
				name, metric, x.Median, y.Median, change*100, x.Spread, y.Spread, issueBound, verdict)
		}
		for _, metric := range union(wa.PerLayer, wb.PerLayer) {
			x, y := wa.PerLayer[metric], wb.PerLayer[metric]
			if x == nil || y == nil || (x.Median == 0 && y.Median == 0) || wa.EndToEnd[metric] != nil {
				continue
			}
			fmt.Fprintf(w, "%-18s %-40s %14.6g %14.6g %+8.1f%% %8s %8s %6s  %s\n", name, metric, x.Median, y.Median,
				worsening(x.Better, x.Median, y.Median)*100, "-", "-", "-", "per layer")
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
