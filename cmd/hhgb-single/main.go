// Command hhgb-single measures the single-instance streaming update rate of
// a hierarchical hypersparse GraphBLAS matrix — the paper's ">1,000,000
// updates per second in a single instance" headline (experiment E1).
//
// Usage:
//
//	hhgb-single [-edges N] [-batch N] [-scale S] [-levels N] [-base-cut N] [-ratio N] [-seed N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"hhgb/internal/bench"
	"hhgb/internal/gb"
	"hhgb/internal/hier"
	"hhgb/internal/powerlaw"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hhgb-single: ")
	var (
		edges   = flag.Int("edges", 10_000_000, "total updates to stream")
		batch   = flag.Int("batch", 100_000, "updates per batch (the paper uses 100,000)")
		scale   = flag.Int("scale", 32, "R-MAT scale (2^scale vertices; 32 = IPv4)")
		levels  = flag.Int("levels", hier.DefaultLevels, "cascade levels")
		baseCut = flag.Int("base-cut", hier.DefaultBaseCut, "cut c1 of the lowest level")
		ratio   = flag.Int("ratio", hier.DefaultCutRatio, "geometric cut ratio")
		seed    = flag.Uint64("seed", 1, "generator seed")
	)
	flag.Parse()
	if err := run(*edges, *batch, *scale, *levels, *baseCut, *ratio, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(edges, batch, scale, levels, baseCut, ratio int, seed uint64) error {
	cuts := hier.GeometricCuts(levels, baseCut, ratio)
	dim := gb.Index(1) << uint(scale)
	h, err := hier.New[uint64](dim, dim, hier.Config{Cuts: cuts})
	if err != nil {
		return err
	}
	g, err := powerlaw.NewRMAT(scale, seed)
	if err != nil {
		return err
	}
	rows := make([]gb.Index, batch)
	cols := make([]gb.Index, batch)
	vals := make([]uint64, batch)
	for k := range vals {
		vals[k] = 1
	}

	fmt.Printf("hierarchical hypersparse GraphBLAS single instance\n")
	fmt.Printf("  dimension: 2^%d x 2^%d   levels: %d   cuts: %v\n", scale, scale, levels, cuts)
	fmt.Printf("  stream: %d updates in batches of %d\n\n", edges, batch)

	// The paper's processes stream pre-generated sets, so the update rate
	// is timed separately from set generation.
	var updateSeconds, genSeconds float64
	wall, err := bench.Measure(int64(edges), func() error {
		for done := 0; done < edges; done += batch {
			n := batch
			if edges-done < n {
				n = edges - done
			}
			g0 := time.Now()
			if err := g.Fill(rows[:n], cols[:n]); err != nil {
				return err
			}
			genSeconds += time.Since(g0).Seconds()
			u0 := time.Now()
			if err := h.Update(rows[:n], cols[:n], vals[:n]); err != nil {
				return err
			}
			updateSeconds += time.Since(u0).Seconds()
		}
		return nil
	})
	if err != nil {
		return err
	}
	rate := bench.Rate{Updates: int64(edges), Seconds: updateSeconds}

	fmt.Printf("update rate:      %s\n", rate)
	fmt.Printf("generation rate:  %s updates/s (excluded from headline, %.3fs)\n",
		bench.Eng(float64(edges)/genSeconds), genSeconds)
	fmt.Printf("wall clock:       %s\n\n", wall)
	st := h.Stats()
	fmt.Printf("cascade statistics:\n")
	fmt.Printf("  batches: %d\n", st.Batches)
	for i := 0; i < len(cuts); i++ {
		frac := float64(st.CascadedEntries[i]) / float64(st.Updates)
		fmt.Printf("  level %d -> %d: %6d cascades, %12d entries moved (%.3fx of ingest)\n",
			i+1, i+2, st.Cascades[i], st.CascadedEntries[i], frac)
	}
	lv := h.LevelNVals()
	fmt.Printf("  level occupancy: %v\n", lv)
	n, err := h.NVals()
	if err != nil {
		return err
	}
	fmt.Printf("  distinct entries: %d\n", n)
	if rate.PerSecond() >= 1_000_000 {
		fmt.Printf("\nHEADLINE: >1,000,000 updates/second single instance: ACHIEVED (%s/s)\n", bench.Eng(rate.PerSecond()))
	} else {
		fmt.Printf("\nHEADLINE: >1,000,000 updates/second single instance: not reached (%s/s)\n", bench.Eng(rate.PerSecond()))
		os.Exit(1)
	}
	return nil
}
