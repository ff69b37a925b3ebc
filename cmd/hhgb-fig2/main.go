// Command hhgb-fig2 regenerates the measured curves of the paper's Fig. 2:
// streaming update rate as a function of server count for hierarchical
// GraphBLAS and hierarchical D4M (experiments E2–E3), plus any other engine
// this repository runs (-engines). The figure's other systems (Accumulo
// D4M, SciDB, Accumulo, CrateDB and Oracle/TPC-C) are the paper's
// published rates, not run here; see Fig. 2 of
// https://arxiv.org/abs/2001.06935.
//
// Every engine is calibrated by a real measured single-process run on this
// machine; the server sweep then applies the paper's shared-nothing
// additivity (processes never communicate) with a documented efficiency
// curve. Output: measured per-process rates, the aggregate-rate table, a
// log-log ASCII rendering of Fig. 2, and optional CSV.
//
// Usage:
//
//	hhgb-fig2 [-edges N] [-seconds S] [-procs-per-server N] [-servers list] [-engines list] [-csv file]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"hhgb/internal/bench"
	"hhgb/internal/cluster"
	"hhgb/internal/powerlaw"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hhgb-fig2: ")
	var (
		edges    = flag.Int("edges", 2_000_000, "workload size for calibration (paper: 100,000,000)")
		seconds  = flag.Float64("seconds", 1.0, "minimum calibration time per engine")
		pps      = flag.Int("procs-per-server", cluster.DefaultProcsPerServer, "processes per server (paper: ~28)")
		servers  = flag.String("servers", "", "comma-separated server counts (default: 1,2,4,...,1100)")
		engines  = flag.String("engines", "", "comma-separated engine subset (default: the measured Fig. 2 engines)")
		csvPath  = flag.String("csv", "", "also write the series as CSV to this file")
		seed     = flag.Uint64("seed", 1, "workload seed")
		plotWide = flag.Int("plot-width", 72, "ASCII plot width")
	)
	flag.Parse()

	cfg := cluster.Fig2Config{
		Stream:             powerlaw.ScaledSpec(*edges, *seed),
		ProcsPerServer:     *pps,
		CalibrationSeconds: *seconds,
	}
	if *servers != "" {
		counts, err := parseInts(*servers)
		if err != nil {
			log.Fatalf("parsing -servers: %v", err)
		}
		cfg.ServerCounts = counts
	}
	if *engines != "" {
		cfg.Engines = strings.Split(*engines, ",")
	}

	fmt.Printf("Fig. 2 reproduction: update rate vs. number of servers\n")
	fmt.Printf("  measured engines; the other systems are the paper's published rates\n")
	fmt.Printf("  workload: %d updates in %d sets of %d (R-MAT scale %d)\n",
		cfg.Stream.TotalEdges, cfg.Stream.Sets(), cfg.Stream.SetSize, cfg.Stream.Scale)
	fmt.Printf("  model: aggregate = servers x %d procs x measured rate x n^-0.03\n\n", cfg.ProcsPerServer)

	series, models, err := cluster.Fig2(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("measured single-process rates (this machine):")
	for _, m := range models {
		fmt.Printf("  %-16s %12s updates/s/process\n", m.EngineName, bench.Eng(m.PerProcessRate))
	}
	fmt.Println()

	fmt.Println(bench.FormatTable("servers", series))
	fmt.Println(bench.PlotLogLog(series, *plotWide, 20))

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := bench.WriteCSV(f, "servers", series); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}

	// Paper-vs-model summary at full scale.
	last := cfg.ServerCounts
	if last == nil {
		last = cluster.DefaultServerCounts()
	}
	maxServers := last[len(last)-1]
	for _, s := range series {
		if s.Name == "hier-graphblas" && len(s.Points) > 0 {
			final := s.Points[len(s.Points)-1].Y
			fmt.Printf("\nhier-graphblas at %d servers: %s updates/s (paper: 75G at 1,100 servers)\n",
				maxServers, bench.Eng(final))
		}
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
