// Package baselines implements the streaming-ingest engines this
// repository runs for the paper's Fig. 2, behind a single Engine interface:
//
//   - HierGraphBLAS — hierarchical hypersparse GraphBLAS (this paper)
//   - FlatGraphBLAS — the same substrate without the hierarchy (ablation)
//   - ShardedGraphBLAS — the hierarchy hash-partitioned across cores
//     (the concurrent ingest frontend; one internally-parallel instance)
//   - HierD4M       — hierarchical D4M associative arrays [19], the
//     paper's prior system
//
// Every engine here is measured, not modelled. The other systems in the
// paper's Fig. 2 (Accumulo D4M, SciDB, Accumulo, CrateDB and Oracle/TPC-C)
// appear there as their published rates; see
// https://arxiv.org/abs/2001.06935. This package does not run them.
package baselines

import (
	"fmt"

	"hhgb/internal/gb"
	"hhgb/internal/powerlaw"
)

// Edge is one streaming update (alias of the generator's edge type).
type Edge = powerlaw.Edge

// Engine is a streaming-ingest engine under benchmark.
type Engine interface {
	// Name identifies the engine in reports ("hier-graphblas", ...).
	Name() string
	// Ingest streams one batch of updates into the engine.
	Ingest(edges []Edge) error
	// Flush completes all pending work.
	Flush() error
	// Count returns the cumulative number of updates ingested.
	Count() int64
	// Close releases resources, flushing first.
	Close() error
}

// Queryable is implemented by engines that can materialize the resulting
// traffic matrix for analysis.
type Queryable interface {
	Query() (*gb.Matrix[uint64], error)
}

// Drainer is implemented by asynchronous engines whose Ingest returns on
// queue-accept rather than completion. Drain blocks until every accepted
// batch has actually been ingested — timed harnesses must call it inside
// the measured window so async engines aren't credited for queued work.
type Drainer interface {
	Drain() error
}

// Factory builds a fresh engine instance; the cluster harness gives each
// simulated process its own instance (shared-nothing).
type Factory func() (Engine, error)

// Registry maps engine names to factories with the default configurations
// used by the Fig. 2 harness.
func Registry(dim gb.Index) map[string]Factory {
	return map[string]Factory{
		"hier-graphblas":    func() (Engine, error) { return NewHierGraphBLAS(dim, nil) },
		"flat-graphblas":    func() (Engine, error) { return NewFlatGraphBLAS(dim) },
		"sharded-graphblas": func() (Engine, error) { return NewShardedGraphBLAS(dim, nil, 0) },
		"hier-d4m":          func() (Engine, error) { return NewHierD4M(nil) },
	}
}

// Fig2Order lists the measured Fig. 2 engines in the order the paper's
// legend presents them (fastest to slowest at scale).
func Fig2Order() []string {
	return []string{"hier-graphblas", "hier-d4m"}
}

// ScalingClass describes how an engine's aggregate throughput composes
// across servers in the Fig. 2 model.
type ScalingClass int

const (
	// ScaleSharedNothing engines run one instance per process/core with
	// no communication: aggregate = servers x procs/server x rate.
	// The paper's hierarchical GraphBLAS and hierarchical D4M runs.
	ScaleSharedNothing ScalingClass = iota
	// ScalePerServer engines run one internally-parallel process per
	// node: aggregate = servers x rate.
	ScalePerServer
)

// ClassOf returns the scaling class of a registered engine.
func ClassOf(name string) ScalingClass {
	switch name {
	case "hier-graphblas", "flat-graphblas", "hier-d4m":
		return ScaleSharedNothing
	default:
		// Includes sharded-graphblas: one internally-parallel instance
		// per node, so aggregate throughput composes per server.
		return ScalePerServer
	}
}

// errClosed is returned when an engine is used after Close.
func errClosed(name string) error {
	return fmt.Errorf("%w: engine %s is closed", gb.ErrInvalidValue, name)
}
