// Sharded: the concurrent ingest frontend. Where cmd/hhgb-cluster gives
// every "process" its own private matrix (the paper's shared-nothing
// experiment), this example keeps ONE logical traffic matrix and
// hash-partitions it across shards — independent hierarchical cascades fed
// through bounded queues by worker goroutines — so concurrent collectors
// stream into it and every analysis query sees the merged whole.
package main

import (
	"fmt"
	"log"
	"runtime"
	"sync"

	"hhgb"
	"hhgb/internal/bench"
	"hhgb/internal/powerlaw"
)

func main() {
	log.SetFlags(0)

	const (
		scale     = 24 // 2^24 addresses
		producers = 4
		batchSize = 100_000 // the paper's set size
	)
	shards := runtime.GOMAXPROCS(0)

	run := func(shards, batches int) (bench.Rate, hhgb.Summary) {
		total := int64(producers * batches * batchSize)
		sm, err := hhgb.NewSharded(1<<scale, hhgb.WithShards(shards))
		if err != nil {
			log.Fatal(err)
		}
		rate, err := bench.Measure(total, func() error {
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					// Each producer generates its own power-law stream —
					// think one packet collector per ingress link — and
					// owns an Appender: its private set of shard buffers,
					// so partitioning never contends across collectors.
					a, err := sm.NewAppender()
					if err != nil {
						log.Fatal(err)
					}
					defer a.Close()
					g, err := powerlaw.NewRMAT(scale, uint64(1+p))
					if err != nil {
						log.Fatal(err)
					}
					src := make([]uint64, batchSize)
					dst := make([]uint64, batchSize)
					for b := 0; b < batches; b++ {
						for i := range src {
							e := g.Edge()
							src[i], dst[i] = uint64(e.Row), uint64(e.Col)
						}
						if err := a.Append(src, dst); err != nil {
							log.Fatal(err)
						}
					}
				}(p)
			}
			wg.Wait()
			return sm.Close() // drain every buffer and shard queue
		})
		if err != nil {
			log.Fatal(err)
		}
		// Summary is a pushdown query: per-shard reductions merged at
		// read time, no global matrix ever materialized.
		sum, err := sm.Summary()
		if err != nil {
			log.Fatal(err)
		}
		return rate, sum
	}

	const batches = 40
	fmt.Printf("one logical 2^%d x 2^%d traffic matrix, %d producers x %d batches of %d\n\n",
		scale, scale, producers, batches, batchSize)

	run(shards, 4) // warm-up: page in the allocator before either timed run
	flat, flatSum := run(1, batches)
	fmt.Printf("  1 shard   (single cascade):     %s\n", flat)
	sharded, shardedSum := run(shards, batches)
	fmt.Printf("  %d shard(s) (hash-partitioned):  %s\n", shards, sharded)
	fmt.Printf("  speedup: %.2fx on %d cores\n\n", bench.Speedup(flat, sharded), runtime.GOMAXPROCS(0))

	if flatSum != shardedSum {
		log.Fatalf("sharding changed the answer!\n  flat    %+v\n  sharded %+v", flatSum, shardedSum)
	}
	fmt.Printf("identical merged analysis either way:\n")
	fmt.Printf("  distinct flows: %d   packets: %d   sources: %d   max fan-out: %d\n",
		shardedSum.Entries, shardedSum.TotalPackets, shardedSum.Sources, shardedSum.MaxOutDegree)
}
