// Package cluster reproduces the paper's Section III methodology: many
// shared-nothing processes, each owning its own engine instance, streaming
// independently generated sets of a power-law graph, with the aggregate
// sustained update rate measured as total updates over wall-clock time.
//
// On the MIT SuperCloud the processes span 1,100 servers; on a laptop the
// same code runs P goroutine "processes" on local cores. One run loop
// (RunLocal, RunLocalWeak) measures every rate here: each process's sets
// are generated before the clock starts and ingested once, never cycled,
// so the clock times the engine and not the generator. Pre-generating is
// this repository's choice, as in the E1 benchmark and bench/'s
// lib_ingest workload.
//
// Calibrate runs that loop twice: one process alone, and GOMAXPROCS
// processes at once. The second gives the per-process rate under a node's
// contention, and its ratio to the first is the measured within-node
// efficiency. Because the paper's workload is embarrassingly parallel (no
// process ever communicates), the model composes across servers with a
// factor of 1: aggregate = servers × processes per server × the contended
// per-process rate.
//
// The harness is engine-agnostic: any baselines.Factory slots in.
// ShardSweep measures the other axis, one internally parallel
// sharded-graphblas instance at increasing shard counts; Fig2 refuses that
// engine, since it is not one instance per process.
//
// Fig2 plots measured series only: every curve is an engine this
// repository runs, calibrated on the local machine. The paper's Fig. 2
// (https://arxiv.org/abs/2001.06935) also plots the published rates of
// Accumulo D4M, SciDB, Accumulo, CrateDB and Oracle/TPC-C; compare against
// those there, since nothing here runs those systems.
package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hhgb/internal/gb"
	"hhgb/internal/powerlaw"
	"hhgb/internal/repro/baselines"
)

// RunResult is one measured local run.
type RunResult struct {
	Engine    string
	Processes int
	Updates   int64
	Seconds   float64
}

// Rate returns the aggregate updates/second of the run.
func (r RunResult) Rate() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(r.Updates) / r.Seconds
}

// PerProcess returns the run's rate per process.
func (r RunResult) PerProcess() float64 {
	if r.Processes < 1 {
		return 0
	}
	return r.Rate() / float64(r.Processes)
}

// RunLocal executes the paper's experiment at local scale with the total
// work fixed: procs goroutine processes, each with its own engine instance,
// each ingesting its own round-robin share of the stream's sets. It
// returns the measured aggregate result.
func RunLocal(factory baselines.Factory, stream powerlaw.StreamSpec, procs int) (RunResult, error) {
	return runLocal(factory, stream, procs, false)
}

// RunLocalWeak executes the paper's actual experiment shape: every process
// streams its *own* full copy of the workload ("each creating many
// different graphs of 100,000,000 edges each"), with per-process seeds so
// the graphs differ. Total work grows with the process count (weak
// scaling).
func RunLocalWeak(factory baselines.Factory, stream powerlaw.StreamSpec, procs int) (RunResult, error) {
	return runLocal(factory, stream, procs, true)
}

// runLocal runs procs processes concurrently and times them. Every set is
// generated before the clock starts and ingested exactly once; the clock
// stops when every process has ingested (and, for an asynchronous engine,
// drained) its last set, and Close runs after it stops.
func runLocal(factory baselines.Factory, stream powerlaw.StreamSpec, procs int, weak bool) (RunResult, error) {
	if procs < 1 {
		return RunResult{}, fmt.Errorf("%w: procs %d < 1", gb.ErrInvalidValue, procs)
	}
	if err := stream.Validate(); err != nil {
		return RunResult{}, err
	}
	sets, err := generate(stream, procs, weak)
	if err != nil {
		return RunResult{}, err
	}
	engines := make([]baselines.Engine, procs)
	for p := range engines {
		e, err := factory()
		if err != nil {
			for _, made := range engines[:p] {
				made.Close()
			}
			return RunResult{}, err
		}
		engines[p] = e
	}

	// Collect the previous run's garbage now, so it is not charged to this
	// run's clock.
	runtime.GC()
	var wg sync.WaitGroup
	errs := make([]error, procs)
	start := time.Now()
	for p, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, edges := range sets[p] {
				if errs[p] = e.Ingest(edges); errs[p] != nil {
					return
				}
			}
			// An asynchronous engine's Ingest returns on queue accept;
			// drain inside the clock so it is credited only for work done.
			if d, ok := e.(baselines.Drainer); ok {
				errs[p] = d.Drain()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var total int64
	for p, e := range engines {
		if err := errors.Join(errs[p], e.Close()); err != nil {
			errs[p] = fmt.Errorf("process %d: %w", p, err)
		}
		total += e.Count()
	}
	if err := errors.Join(errs...); err != nil {
		return RunResult{}, err
	}
	return RunResult{Engine: engines[0].Name(), Processes: procs, Updates: total, Seconds: elapsed}, nil
}

// generate returns each process's sets: process p gets sets p, p+procs, …
// of stream, or with weak every set of its own reseeded copy. Every core
// generates one set at a time until none is left.
func generate(stream powerlaw.StreamSpec, procs int, weak bool) ([][][]powerlaw.Edge, error) {
	type job struct {
		spec     powerlaw.StreamSpec
		p, k, at int
	}
	var jobs []job
	sets := make([][][]powerlaw.Edge, procs)
	for p := range sets {
		spec, first, step := stream, p, procs
		if weak {
			spec.Seed = stream.Seed + 0x9e3779b97f4a7c15*uint64(p+1)
			first, step = 0, 1
		}
		for set := first; set < stream.Sets(); set += step {
			jobs = append(jobs, job{spec: spec, p: p, k: set, at: len(sets[p])})
			sets[p] = append(sets[p], nil)
		}
	}
	var next atomic.Int64
	errs := make([]error, len(jobs))
	gb.ParallelFor(runtime.GOMAXPROCS(0), func(int) {
		for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
			j := jobs[i]
			sets[j.p][j.at], errs[i] = j.spec.GenerateSet(j.k)
		}
	})
	return sets, errors.Join(errs...)
}

// Model extrapolates aggregate throughput to server counts the local
// machine cannot host. Each factor is either measured on this host (Solo,
// Contended) or taken from the paper (ProcsPerServer, and the server
// count passed to Aggregate); across servers the factor is 1, the
// shared-nothing assumption: the paper's processes never communicate.
type Model struct {
	// Solo is one process running alone on the host.
	Solo RunResult
	// Contended is GOMAXPROCS processes running at once: a node's worth
	// of processes sharing its cores and memory bandwidth.
	Contended RunResult
	// ProcsPerServer is the process count per server (the paper runs
	// ~31,000 instances on 1,100 servers ≈ 28 per server).
	ProcsPerServer int
}

// DefaultProcsPerServer matches the paper's ~28-31 instances per node.
const DefaultProcsPerServer = 28

// Efficiency is the measured within-node efficiency: the contended
// per-process rate over the solo rate.
func (m Model) Efficiency() float64 {
	if m.Solo.Rate() <= 0 {
		return 0
	}
	return m.Contended.PerProcess() / m.Solo.Rate()
}

// Aggregate returns the modeled aggregate rate at the given server count:
// servers × ProcsPerServer × the contended per-process rate.
func (m Model) Aggregate(servers int) float64 {
	if servers < 1 {
		return 0
	}
	return float64(servers) * float64(m.ProcsPerServer) * m.Contended.PerProcess()
}

// Calibrate builds a Model for the engine from two weak runs of the
// stream: one process alone, then GOMAXPROCS processes at once.
func Calibrate(factory baselines.Factory, stream powerlaw.StreamSpec, procsPerServer int) (Model, error) {
	if procsPerServer < 1 {
		procsPerServer = DefaultProcsPerServer
	}
	solo, err := RunLocalWeak(factory, stream, 1)
	if err != nil {
		return Model{}, err
	}
	contended, err := RunLocalWeak(factory, stream, runtime.GOMAXPROCS(0))
	if err != nil {
		return Model{}, err
	}
	return Model{Solo: solo, Contended: contended, ProcsPerServer: procsPerServer}, nil
}

// Fig2Config drives the Fig. 2 reproduction sweep.
type Fig2Config struct {
	// Stream is each process's workload (paper: 1,000 sets of 100,000).
	Stream powerlaw.StreamSpec
	// ServerCounts is the x-axis (paper: 1 … 1,100, log-spaced).
	ServerCounts []int
	// ProcsPerServer scales servers to processes.
	ProcsPerServer int
	// Engines selects and orders the engines; nil means Fig2Order.
	Engines []string
	// Dim is the traffic-matrix dimension for the GraphBLAS engines.
	Dim gb.Index
}

// DefaultServerCounts returns the paper's log-spaced x-axis up to 1,100.
func DefaultServerCounts() []int {
	return []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1100}
}

// Fig2 runs the Fig. 2 reproduction for the measured engines: it
// calibrates every engine locally, then produces one extrapolated series
// per engine across the server counts. The returned models carry the
// measured rates for reporting. The sharded engine is refused: it is one
// internally parallel instance, not one instance per process.
func Fig2(cfg Fig2Config) ([]Series, []Model, error) {
	if cfg.ServerCounts == nil {
		cfg.ServerCounts = DefaultServerCounts()
	}
	if cfg.Dim == 0 {
		cfg.Dim = 1 << 32
	}
	names := cfg.Engines
	if names == nil {
		names = baselines.Fig2Order()
	}
	registry := baselines.Registry(cfg.Dim)
	var series []Series
	var models []Model
	for _, name := range names {
		factory, ok := registry[name]
		switch {
		case !ok:
			return nil, nil, fmt.Errorf("%w: unknown engine %q", gb.ErrInvalidValue, name)
		case name == "sharded-graphblas":
			return nil, nil, fmt.Errorf("%w: %s is one internally parallel instance, not one per process (ShardSweep measures it)", gb.ErrInvalidValue, name)
		}
		model, err := Calibrate(factory, cfg.Stream, cfg.ProcsPerServer)
		if err != nil {
			return nil, nil, fmt.Errorf("calibrating %s: %w", name, err)
		}
		s := Series{Name: name}
		for _, n := range cfg.ServerCounts {
			s.Add(float64(n), model.Aggregate(n))
		}
		series = append(series, s)
		models = append(models, model)
	}
	return series, models, nil
}

// Counts returns a sweep's x-axis: 1, 2, 4, … below max, then max itself
// (GOMAXPROCS when max < 1).
func Counts(max int) []int {
	if max < 1 {
		max = runtime.GOMAXPROCS(0)
	}
	var out []int
	for n := 1; n < max; n *= 2 {
		out = append(out, n)
	}
	return append(out, max)
}

// sweep runs f at each count.
func sweep(counts []int, f func(n int) (RunResult, error)) ([]RunResult, error) {
	out := make([]RunResult, 0, len(counts))
	for _, n := range counts {
		r, err := f(n)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// WeakScaling measures aggregate rate at Counts(maxProcs) processes with
// per-process constant work (experiment E12, the paper's methodology):
// each process streams its own full workload copy.
func WeakScaling(factory baselines.Factory, stream powerlaw.StreamSpec, maxProcs int) ([]RunResult, error) {
	return sweep(Counts(maxProcs), func(p int) (RunResult, error) {
		return RunLocalWeak(factory, stream, p)
	})
}

// StrongScaling measures aggregate rate at Counts(maxProcs) processes with
// the total workload fixed and divided among processes.
func StrongScaling(factory baselines.Factory, stream powerlaw.StreamSpec, maxProcs int) ([]RunResult, error) {
	return sweep(Counts(maxProcs), func(p int) (RunResult, error) {
		return RunLocal(factory, stream, p)
	})
}

// ShardSweep measures one sharded-graphblas instance, in one process, at
// Counts(maxShards) shards: the within-instance axis beside the process
// sweeps' shared-nothing one. Result k ran with Counts(maxShards)[k]
// shards.
func ShardSweep(dim gb.Index, stream powerlaw.StreamSpec, maxShards int) ([]RunResult, error) {
	return sweep(Counts(maxShards), func(s int) (RunResult, error) {
		return RunLocal(func() (baselines.Engine, error) {
			return baselines.NewShardedGraphBLAS(dim, nil, s)
		}, stream, 1)
	})
}
