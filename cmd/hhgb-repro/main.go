// Command hhgb-repro reproduces the paper's multi-process results at local
// scale. Both subcommands stream the paper's sets of 100,000 updates over
// 2^32 vertices, built from -edges and -seed alone, through one run loop:
// each process's sets are generated before the clock starts (procs × edges
// × 24 B of memory) and ingested once.
//
// fig2 regenerates the measured curves of the paper's Fig. 2: streaming
// update rate as a function of server count for hierarchical GraphBLAS and
// hierarchical D4M (experiments E2–E3), plus any other engine this
// repository runs one instance per process of (-engines). Each engine runs
// alone and then GOMAXPROCS processes at once; the sweep multiplies the
// second run's per-process rate by the paper's processes per server and
// server count, and by 1 across servers (the paper's processes never
// communicate). The figure's other systems (Accumulo D4M, SciDB, Accumulo,
// CrateDB and Oracle/TPC-C) are the paper's published rates, not run here;
// see Fig. 2 of https://arxiv.org/abs/2001.06935.
//
// scaling runs the paper's Section III experiment (E12): P shared-nothing
// goroutine "processes", each owning its own engine instance, with the
// aggregate rate measured over wall-clock time, first with per-process
// work fixed (weak scaling), then with total work fixed (strong scaling).
// Beside them it sweeps one sharded-graphblas instance from 1 to
// GOMAXPROCS shards.
//
// Usage:
//
//	hhgb-repro fig2 [-edges N] [-procs-per-server N] [-servers list] [-engines list] [-seed N]
//	hhgb-repro scaling [-edges N] [-max-procs N] [-engine name] [-seed N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"

	"hhgb/internal/gb"
	"hhgb/internal/powerlaw"
	"hhgb/internal/repro/baselines"
	"hhgb/internal/repro/cluster"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hhgb-repro: ")
	if len(os.Args) < 2 {
		log.Fatal("usage: hhgb-repro fig2|scaling [flags]")
	}
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "fig2":
		fig2(args)
	case "scaling":
		scaling(args)
	default:
		log.Fatalf("unknown subcommand %q (want fig2 or scaling)", cmd)
	}
}

// paperStream is the paper's stream cut to the whole 100,000-entry sets in
// edges: the sets bench/ and BenchmarkE1_SingleInstance stream.
func paperStream(edges int, seed uint64) powerlaw.StreamSpec {
	const set = 100_000
	s := powerlaw.StreamSpec{TotalEdges: edges / set * set, SetSize: set, Scale: 32, Seed: seed}
	if err := s.Validate(); err != nil {
		log.Fatalf("-edges %d: %v", edges, err)
	}
	return s
}

func fig2(args []string) {
	fs := flag.NewFlagSet("fig2", flag.ExitOnError)
	var (
		edges   = fs.Int("edges", 2_000_000, "updates per process (paper: 100,000,000); pre-generated: GOMAXPROCS × edges × 24 B")
		pps     = fs.Int("procs-per-server", cluster.DefaultProcsPerServer, "processes per server (paper: ~28)")
		servers = fs.String("servers", "", "comma-separated server counts (default: 1,2,4,...,1100)")
		engines = fs.String("engines", "", "comma-separated engine subset (default: the measured Fig. 2 engines)")
		seed    = fs.Uint64("seed", 1, "workload seed")
	)
	fs.Parse(args)

	cfg := cluster.Fig2Config{Stream: paperStream(*edges, *seed), ProcsPerServer: *pps}
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
	fmt.Printf("  workload per process: %d updates in %d sets of %d (R-MAT scale %d), generated before the clock, never repeated\n",
		cfg.Stream.TotalEdges, cfg.Stream.Sets(), cfg.Stream.SetSize, cfg.Stream.Scale)
	fmt.Println()

	series, models, err := cluster.Fig2(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("measured per-process rates (this machine, updates/s):\n")
	fmt.Printf("  %-16s %12s %12s %11s\n", "engine", "alone", fmt.Sprintf("%d at once", runtime.GOMAXPROCS(0)), "efficiency")
	for _, m := range models {
		fmt.Printf("  %-16s %12s %12s %11.2f\n", m.Solo.Engine, cluster.Eng(m.Solo.Rate()), cluster.Eng(m.Contended.PerProcess()), m.Efficiency())
	}
	fmt.Println()
	fmt.Println(cluster.FormatTable("servers", series))
	fmt.Println(cluster.PlotLogLog(series, 72, 20))

	// The headline at full scale, with each factor's provenance.
	for i, s := range series {
		if s.Name != "hier-graphblas" || len(s.Points) == 0 {
			continue
		}
		m, final := models[i], s.Points[len(s.Points)-1]
		fmt.Printf("\nhier-graphblas at %d servers: %s updates/s (paper: 75G at 1,100 servers)\n", int(final.X), cluster.Eng(final.Y))
		fmt.Printf("  = %d servers (the paper) x %d processes per server (the paper)\n", int(final.X), m.ProcsPerServer)
		fmt.Printf("  x %s updates/s per process (measured here, %d processes at once; alone %s: efficiency %.2f)\n",
			cluster.Eng(m.Contended.PerProcess()), m.Contended.Processes, cluster.Eng(m.Solo.Rate()), m.Efficiency())
		fmt.Printf("  x 1 across servers (assumed: shared-nothing, the paper's processes never communicate)\n")
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

func scaling(args []string) {
	fs := flag.NewFlagSet("scaling", flag.ExitOnError)
	var (
		edges    = fs.Int("edges", 2_000_000, "updates per process (weak) or in total (strong); pre-generated: up to procs × edges × 24 B")
		maxProcs = fs.Int("max-procs", 2*runtime.GOMAXPROCS(0), "largest process count to test")
		engine   = fs.String("engine", "hier-graphblas", "engine to scale")
		seed     = fs.Uint64("seed", 1, "workload seed")
	)
	fs.Parse(args)

	stream := paperStream(*edges, *seed)
	const dim = gb.Index(1) << 32
	factory, ok := baselines.Registry(dim)[*engine]
	if !ok {
		log.Fatalf("unknown engine %q", *engine)
	}

	fmt.Printf("local scaling: %s, %d updates in %d sets of %d (R-MAT scale %d) per process\n",
		*engine, stream.TotalEdges, stream.Sets(), stream.SetSize, stream.Scale)
	fmt.Printf("machine: GOMAXPROCS=%d\n\n", runtime.GOMAXPROCS(0))

	fmt.Println("weak scaling (paper methodology: each process streams its own graphs):")
	printResults("procs", cluster.Counts(*maxProcs), must(cluster.WeakScaling(factory, stream, *maxProcs)))
	fmt.Println("\nstrong scaling (fixed total work, divided):")
	printResults("procs", cluster.Counts(*maxProcs), must(cluster.StrongScaling(factory, stream, *maxProcs)))
	fmt.Println("\nshard sweep (one sharded-graphblas instance, fixed total work):")
	printResults("shards", cluster.Counts(0), must(cluster.ShardSweep(dim, stream, 0)))
}

// must returns v, or exits on err.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

// printResults prints one sweep; xs[k] is the count result k ran at.
func printResults(x string, xs []int, results []cluster.RunResult) {
	fmt.Printf("%8s  %14s  %12s  %10s  %10s\n", x, "updates/s", "updates", "seconds", "speedup")
	base := results[0].Rate()
	for k, r := range results {
		fmt.Printf("%8d  %14s  %12d  %10.3f  %9.2fx\n",
			xs[k], cluster.Eng(r.Rate()), r.Updates, r.Seconds, r.Rate()/base)
	}
}
