package main

import (
	"fmt"
	"os"
	"time"

	"hhgb/hhgbclient"
)

// durableRun accumulates the samples of one wire_durable pass.
type durableRun struct {
	setups, rates, rss, disk, checkpoints []float64 // one value per cycle
	acks, lookups                         []float64 // every sample of the run
	recover                               float64
	scrape                                string
}

// runWireDurable is the production write path end to end: closed loop, two
// sessioned connections with client defaults (4096-entry frames), against
// `hhgb-serve -durable` in a fresh directory per cycle. A cycle times
// DurableEdges entries up to the return of the durable Flush and then a
// Checkpoint. After the run's seconds are spent one last cycle goes on:
// DurableTail more entries and a Flush, SIGKILL, restart on the same
// directory, timed to the first Summary whose packet total equals what the
// clients were acked.
func runWireDurable(e *env, in *stream, rec *spanRec) (map[string]float64, error) {
	n, total := e.sz.DurableEdges, e.sz.DurableEdges+e.sz.DurableTail
	ref := reference(in, n, e.sz.Lookups, e.seed)
	refAll := reference(in, total, e.sz.Lookups, e.seed+1)
	var r durableRun
	root := rec.start(0, "bench", "wire_durable")
	for start := time.Now(); time.Since(start) < e.seconds || len(r.rates) < 2; {
		if err := e.durableCycle(in, rec, root, &r, ref, nil); err != nil {
			return nil, err
		}
	}
	if err := e.durableCycle(in, rec, root, &r, ref, &refAll); err != nil {
		return nil, err
	}
	rec.end(root, int64(n*len(r.rates)))
	e.quantiles(len(r.acks), "hhgbclient.ack_p50_ms", "hhgbclient.ack_p99_ms")
	e.quantiles(len(r.lookups), "lookup_p50_us", "hhgbclient.lookup_p99_us")
	vals := map[string]float64{
		"setup_s":                    lowest(r.setups),
		"inserts_per_s":              highest(r.rates),
		"bench.inserts_per_s_median": median(r.rates),
		"lookup_p50_us":              median(r.lookups),
		"rss_mb":                     median(r.rss),
		"hhgbclient.ack_p50_ms":      median(r.acks),
		"hhgbclient.ack_p99_ms":      tail(r.acks, 0.99),
		"hhgbclient.lookup_p99_us":   tail(r.lookups, 0.99),
		"server.checkpoint_s":        median(r.checkpoints),
		"server.recover_s":           r.recover,
		"wal.disk_bytes_per_entry":   median(r.disk),
	}
	if rec != nil {
		serverMetrics(r.scrape, vals)
	}
	return vals, nil
}

// durableCycle runs one cycle into r. With refAll set it is the last cycle
// and continues through tail, kill and recovery; refAll covers the tail too.
func (e *env) durableCycle(in *stream, rec *spanRec, parent int, r *durableRun, ref refs, refAll *refs) error {
	n, total := e.sz.DurableEdges, e.sz.DurableEdges+e.sz.DurableTail
	dir, err := os.MkdirTemp(e.tmpDir, "durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	c, err := e.startChild(rec != nil, "-durable", dir)
	if err != nil {
		return err
	}
	defer c.kill()
	clients, logs, err := dialN(c, 2)
	if err != nil {
		return err
	}
	defer closeAll(clients)
	r.setups = append(r.setups, time.Since(t0).Seconds())

	cyc := rec.start(parent, "bench", "cycle")
	disk0 := dirBytes(dir)
	mem := sampleRSS(c.cmd.Process.Pid)
	t0 = time.Now()
	if err := ingestWire(e, clients, in, 0, n, rec, cyc); err != nil {
		return fmt.Errorf("wire_durable: %w", err)
	}
	r.rates = append(r.rates, float64(n)/time.Since(t0).Seconds())
	r.rss = append(r.rss, mem.meanMiB())
	r.disk = append(r.disk, float64(dirBytes(dir)-disk0)/float64(n))
	r.acks = append(append(r.acks, logs[0].ms...), logs[1].ms...)
	id := rec.start(cyc, "hhgbclient", "lookup")
	e.timedLookups("wire_durable", clients[0].Lookup, ref, &r.lookups)
	rec.end(id, int64(len(ref.pairs)))
	id = rec.start(cyc, "hhgbclient", "checkpoint")
	t0 = time.Now()
	err = clients[0].Checkpoint()
	r.checkpoints = append(r.checkpoints, time.Since(t0).Seconds())
	rec.end(id, 1)
	e.check(err == nil, "wire_durable: Checkpoint: %v", err)
	rec.end(cyc, int64(n))
	if refAll == nil {
		return nil
	}

	if err := ingestWire(e, clients, in, n, total, rec, parent); err != nil {
		return fmt.Errorf("wire_durable tail: %w", err)
	}
	if rec != nil {
		if r.scrape, err = c.scrape(); err != nil {
			return err
		}
	}

	// The crash: every entry the clients hold a Flush ack for must be there
	// after the restart.
	c.kill()
	closeAll(clients)
	id = rec.start(parent, "server", "recover")
	t0 = time.Now()
	c2, err := e.startChild(false, "-durable", dir)
	if err != nil {
		return fmt.Errorf("wire_durable: restart after kill: %w", err)
	}
	defer c2.kill()
	cl, err := hhgbclient.Dial(c2.addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	sum, err := cl.Summary()
	r.recover = time.Since(t0).Seconds()
	rec.end(id, int64(total))
	e.check(err == nil && sum.TotalPackets == uint64(total),
		"wire_durable: recovered Summary().TotalPackets = %d, %v; acked %d", sum.TotalPackets, err, total)
	e.timedLookups("wire_durable recovered", cl.Lookup, *refAll, nil)
	return nil
}
