// Traffic analysis: the paper's motivating application. Streams synthetic
// (anonymized) netflow into windowed hierarchical traffic matrices, then
// runs the Section I analyses on each window: supernode detection,
// degree statistics, a background model, and anomaly extraction.
package main

import (
	"fmt"
	"log"

	"hhgb/internal/gb"
	"hhgb/internal/hier"
	"hhgb/internal/repro/trace"
	"hhgb/internal/stats"
)

func main() {
	log.SetFlags(0)

	gen, err := trace.NewGenerator(0xbeef)
	if err != nil {
		log.Fatal(err)
	}

	// 100k-flow windows cascading through a 3-level hierarchy.
	win, err := trace.NewWindow(100_000, hier.Config{Cuts: hier.GeometricCuts(3, 1<<12, 16)})
	if err != nil {
		log.Fatal(err)
	}
	background, err := stats.NewBackground(trace.IPv4Space, trace.IPv4Space, 0.3)
	if err != nil {
		log.Fatal(err)
	}

	const windows = 4
	fmt.Printf("streaming %d windows of 100,000 flows each\n\n", windows)
	for len(win.Completed()) < windows {
		if err := win.Observe(gen.Batch(20_000)); err != nil {
			log.Fatal(err)
		}
	}

	for i, m := range win.Completed() {
		s, err := stats.Summarize(m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("window %d: %7d entries  %7d srcs  %7d dsts  %9d pkts  max fan-out %d\n",
			i, s.Entries, s.Sources, s.Destinations, s.TotalPackets, s.MaxOutDegree)

		// Supernodes: heaviest destinations this window.
		it, err := stats.InTraffic(m)
		if err != nil {
			log.Fatal(err)
		}
		top, err := stats.TopK(it, 3)
		if err != nil {
			log.Fatal(err)
		}
		for rank, e := range top {
			ip, _ := trace.IndexToIPv4(e.Index)
			fmt.Printf("  supernode %d: %-15s %8d packets\n", rank+1, trace.FormatIPv4(ip), e.Value)
		}

		// Flag window-over-background anomalies before absorbing the
		// window into the model (first window: everything is new, so we
		// absorb first and only flag from window 1 on).
		if background.Windows() > 0 {
			anom, err := background.Anomalies(m, 4.0, 1000)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  anomalous edges vs background (>4x, >=1000 pkts): %d\n", anom.NVals())
			shown := 0
			anom.Iterate(func(i, j gb.Index, v uint64) bool {
				src, _ := trace.IndexToIPv4(i)
				dst, _ := trace.IndexToIPv4(j)
				fmt.Printf("    %s -> %s : %d pkts\n", trace.FormatIPv4(src), trace.FormatIPv4(dst), v)
				shown++
				return shown < 3
			})
		}
		if err := background.Absorb(m); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("\nbackground model: %d entries after %d windows\n",
		background.Model().NVals(), background.Windows())
}
