package hhgb_test

import (
	"fmt"
	"log"
	"os"

	"hhgb"
)

// ExampleNew shows the minimal streaming loop: create, update, query.
func ExampleNew() {
	tm, err := hhgb.New(hhgb.IPv4Space)
	if err != nil {
		log.Fatal(err)
	}
	// One batch of observations: 10.0.0.1 talks to 8.8.8.8 twice.
	srcs := []uint64{0x0a000001, 0x0a000001}
	dsts := []uint64{0x08080808, 0x08080808}
	if err := tm.Update(srcs, dsts); err != nil {
		log.Fatal(err)
	}
	v, ok, err := tm.Lookup(0x0a000001, 0x08080808)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(v, ok)
	// Output: 2 true
}

// ExampleTrafficMatrix_Summary shows aggregate statistics over the
// accumulated matrix.
func ExampleTrafficMatrix_Summary() {
	tm, err := hhgb.New(1 << 20)
	if err != nil {
		log.Fatal(err)
	}
	if err := tm.UpdateWeighted(
		[]uint64{1, 1, 2},
		[]uint64{7, 8, 7},
		[]uint64{10, 20, 30},
	); err != nil {
		log.Fatal(err)
	}
	s, err := tm.Summary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("entries=%d sources=%d packets=%d maxFanOut=%d\n",
		s.Entries, s.Sources, s.TotalPackets, s.MaxOutDegree)
	// Output: entries=3 sources=2 packets=60 maxFanOut=2
}

// ExampleWithGeometricCuts shows tuning the cascade geometry, the paper's
// c_i parameters.
func ExampleWithGeometricCuts() {
	tm, err := hhgb.New(hhgb.IPv4Space, hhgb.WithGeometricCuts(5, 1024, 8))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tm.Levels())
	// Output: 5
}

// ExampleTrafficMatrix_TopSources shows supernode ranking.
func ExampleTrafficMatrix_TopSources() {
	tm, err := hhgb.New(1 << 20)
	if err != nil {
		log.Fatal(err)
	}
	if err := tm.UpdateWeighted(
		[]uint64{42, 42, 7},
		[]uint64{1, 2, 1},
		[]uint64{100, 50, 10},
	); err != nil {
		log.Fatal(err)
	}
	top, err := tm.TopSources(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("source %d sent %d packets\n", top[0].ID, top[0].Value)
	// Output: source 42 sent 150 packets
}

// ExampleNewSharded shows the concurrent ingest frontend: the same
// streaming loop as ExampleNew, but hash-partitioned across independent
// cascades so many goroutines can feed one logical matrix.
func ExampleNewSharded() {
	sm, err := hhgb.NewSharded(hhgb.IPv4Space, hhgb.WithShards(4))
	if err != nil {
		log.Fatal(err)
	}
	// Safe to call from any number of goroutines; here one suffices.
	srcs := []uint64{0x0a000001, 0x0a000001, 0x0a000002}
	dsts := []uint64{0x08080808, 0x08080808, 0x01010101}
	if err := sm.Update(srcs, dsts); err != nil {
		log.Fatal(err)
	}
	if err := sm.Close(); err != nil { // drain the shard queues
		log.Fatal(err)
	}
	v, ok, err := sm.Lookup(0x0a000001, 0x08080808)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(v, ok, sm.Shards())
	// Output: 2 true 4
}

// ExampleSharded_checkpoint shows the durable ingest loop: a sharded
// matrix that write-ahead-logs every batch and compacts the logs into
// per-shard snapshots at each checkpoint.
func ExampleSharded_checkpoint() {
	dir, err := os.MkdirTemp("", "hhgb-durable")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	sm, err := hhgb.NewSharded(1<<20, hhgb.WithShards(2), hhgb.WithDurability(dir))
	if err != nil {
		log.Fatal(err)
	}
	if err := sm.Update([]uint64{1, 2, 3}, []uint64{7, 8, 9}); err != nil {
		log.Fatal(err)
	}
	// The checkpoint is a batch-atomic barrier: every accepted batch is
	// fsynced, snapshotted per shard, and the logs truncate.
	if err := sm.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	sum, err := sm.Summary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sum.Entries, sum.TotalPackets)
	_ = sm.Close()
	// Output: 3 3
}

// ExampleRecover shows a durable matrix surviving a restart: ingest, shut
// down, then rebuild from the directory. After a real crash the same
// Recover call additionally replays the write-ahead-log tails — every
// batch accepted before the last Flush or Checkpoint comes back.
func ExampleRecover() {
	dir, err := os.MkdirTemp("", "hhgb-example-recover")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	sm, err := hhgb.NewSharded(1<<20, hhgb.WithShards(2), hhgb.WithDurability(dir))
	if err != nil {
		log.Fatal(err)
	}
	if err := sm.UpdateWeighted([]uint64{1, 1, 2}, []uint64{7, 7, 8}, []uint64{10, 5, 1}); err != nil {
		log.Fatal(err)
	}
	if err := sm.Close(); err != nil { // final checkpoint; releases the dir
		log.Fatal(err)
	}
	// The process restarts here. Recover rebuilds the matrix from the
	// manifest, snapshots, and any surviving log tails.
	rm, err := hhgb.Recover(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer rm.Close()
	v, ok, err := rm.Lookup(1, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(v, ok, rm.Shards())
	// Output: 15 true 2
}
