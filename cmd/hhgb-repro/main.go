// Command hhgb-repro reproduces the paper's multi-process results at local
// scale. It has two subcommands.
//
// fig2 regenerates the measured curves of the paper's Fig. 2: streaming
// update rate as a function of server count for hierarchical GraphBLAS and
// hierarchical D4M (experiments E2–E3), plus any other engine this
// repository runs (-engines). Every engine is calibrated by a real measured
// single-process run on this machine; the server sweep then applies the
// paper's shared-nothing additivity (processes never communicate) with a
// documented efficiency curve. The figure's other systems (Accumulo D4M,
// SciDB, Accumulo, CrateDB and Oracle/TPC-C) are the paper's published
// rates, not run here; see Fig. 2 of https://arxiv.org/abs/2001.06935.
//
// scaling runs the paper's Section III experiment (E12): P shared-nothing
// goroutine "processes", each owning its own engine instance and streaming
// its own power-law sets, with the aggregate sustained rate measured over
// wall-clock time, first with per-process work fixed (weak scaling) and
// then with total work fixed (strong scaling). With -engine
// sharded-graphblas each "process" is one internally-parallel sharded
// instance of -shards shards (0 = all cores), composing shards within a
// process with shared-nothing processes across the machine.
//
// Usage:
//
//	hhgb-repro fig2 [-edges N] [-seconds S] [-procs-per-server N] [-servers list] [-engines list] [-seed N]
//	hhgb-repro scaling [-edges N] [-set-size N] [-max-procs N] [-engine name] [-shards N] [-seed N]
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

func fig2(args []string) {
	fs := flag.NewFlagSet("fig2", flag.ExitOnError)
	var (
		edges   = fs.Int("edges", 2_000_000, "workload size for calibration (paper: 100,000,000)")
		seconds = fs.Float64("seconds", 1.0, "minimum calibration time per engine")
		pps     = fs.Int("procs-per-server", cluster.DefaultProcsPerServer, "processes per server (paper: ~28)")
		servers = fs.String("servers", "", "comma-separated server counts (default: 1,2,4,...,1100)")
		engines = fs.String("engines", "", "comma-separated engine subset (default: the measured Fig. 2 engines)")
		seed    = fs.Uint64("seed", 1, "workload seed")
	)
	fs.Parse(args)

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
		fmt.Printf("  %-16s %12s updates/s/process\n", m.EngineName, cluster.Eng(m.PerProcessRate))
	}
	fmt.Println()
	fmt.Println(cluster.FormatTable("servers", series))
	fmt.Println(cluster.PlotLogLog(series, 72, 20))

	// Paper-vs-model summary at full scale.
	for _, s := range series {
		if s.Name == "hier-graphblas" && len(s.Points) > 0 {
			final := s.Points[len(s.Points)-1]
			fmt.Printf("\nhier-graphblas at %d servers: %s updates/s (paper: 75G at 1,100 servers)\n",
				int(final.X), cluster.Eng(final.Y))
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

func scaling(args []string) {
	fs := flag.NewFlagSet("scaling", flag.ExitOnError)
	var (
		edges    = fs.Int("edges", 4_000_000, "total updates")
		setSize  = fs.Int("set-size", 100_000, "updates per set (paper: 100,000)")
		maxProcs = fs.Int("max-procs", 2*runtime.GOMAXPROCS(0), "largest process count to test")
		engine   = fs.String("engine", "hier-graphblas", "engine to scale")
		shards   = fs.Int("shards", 0, "shard count for -engine sharded-graphblas (0 = all cores)")
		seed     = fs.Uint64("seed", 1, "workload seed")
	)
	fs.Parse(args)

	total := (*edges / *setSize) * *setSize
	stream := powerlaw.StreamSpec{TotalEdges: total, SetSize: *setSize, Scale: 28, Seed: *seed}
	const dim = gb.Index(1) << 28
	factory, ok := baselines.Registry(dim)[*engine]
	if !ok {
		log.Fatalf("unknown engine %q", *engine)
	}
	if *shards < 0 {
		log.Fatalf("-shards %d: shard count must be >= 0 (0 = all cores)", *shards)
	}
	if *engine == "sharded-graphblas" {
		// Rebuild the factory with the explicit shard count so every
		// simulated process gets its own sharded frontend.
		factory = func() (baselines.Engine, error) {
			return baselines.NewShardedGraphBLAS(dim, nil, *shards)
		}
	} else if *shards != 0 {
		log.Fatalf("-shards applies only to -engine sharded-graphblas, not %q", *engine)
	}

	fmt.Printf("local scaling: %s, %d updates in %d sets of %d per process\n",
		*engine, stream.TotalEdges, stream.Sets(), stream.SetSize)
	fmt.Printf("machine: GOMAXPROCS=%d\n\n", runtime.GOMAXPROCS(0))

	fmt.Println("weak scaling (paper methodology: each process streams its own graphs):")
	weak, err := cluster.WeakScaling(factory, stream, *maxProcs)
	if err != nil {
		log.Fatal(err)
	}
	printResults(weak)

	fmt.Println("\nstrong scaling (fixed total work, divided):")
	strong, err := cluster.StrongScaling(factory, stream, *maxProcs)
	if err != nil {
		log.Fatal(err)
	}
	printResults(strong)
}

func printResults(results []cluster.RunResult) {
	fmt.Printf("%8s  %14s  %12s  %10s  %10s\n", "procs", "updates/s", "updates", "seconds", "speedup")
	base := results[0].Rate()
	for _, r := range results {
		fmt.Printf("%8d  %14s  %12d  %10.3f  %9.2fx\n",
			r.Processes, cluster.Eng(r.Rate()), r.Updates, r.Seconds, r.Rate()/base)
	}
}
