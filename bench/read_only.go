package main

import (
	"fmt"
	"time"

	"hhgb/hhgbclient"
)

// runReadOnly is the closed-loop read workload: one connection to an
// in-memory flat `hhgb-serve` preloaded with ReadPreload entries, caches
// warmed, no concurrent ingest. Rounds of 40 Lookups (pairs drawn from the
// stream), 6 TopSources(10) and 1 Summary repeat until the run's seconds are
// spent. The mix is what lets a 15 s run hold, with half as much again to
// spare on a slow day, the 1,000 lookups a p99 and the 200 top-k a p95 need:
// a summary costs four top-k and 1,300 lookups. Set-up (child start, preload,
// five warm-ups per op) is taken Setups times; the preload is the only
// ingest this workload sees, so it is where inserts_per_s comes from.
func runReadOnly(e *env, in *stream, rec *spanRec) (map[string]float64, error) {
	n := e.sz.ReadPreload
	ref := reference(in, n, e.sz.Lookups, e.seed)
	wantTop := topSources(in, n, 10)
	root := rec.start(0, "bench", "read_only")

	var setups, rates, acks []float64 // per set-up; acks holds every sample
	var c *child
	var cl *hhgbclient.Client
	for i := 0; i < e.sz.Setups; i++ {
		if c != nil {
			cl.Close()
			c.kill()
		}
		t0 := time.Now()
		var err error
		if c, err = e.startChild(rec != nil); err != nil {
			return nil, err
		}
		defer c.kill()
		clients, logs, err := dialN(c, 1)
		if err != nil {
			return nil, err
		}
		cl = clients[0]
		defer cl.Close()
		pre := rec.start(root, "bench", "preload")
		t1 := time.Now()
		if err := ingestWire(e, clients, in, 0, n, rec, pre); err != nil {
			return nil, fmt.Errorf("read_only preload: %w", err)
		}
		rates = append(rates, float64(n)/time.Since(t1).Seconds())
		rec.end(pre, int64(n))
		acks = append(acks, logs[0].ms...)
		for w := 0; w < 5; w++ {
			if _, _, err := cl.Lookup(ref.pairs[w].src, ref.pairs[w].dst); err != nil {
				return nil, err
			}
			if _, err := cl.TopSources(10); err != nil {
				return nil, err
			}
			if _, err := cl.Summary(); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var lookups, topk, summary []float64
	next := 0
	timed := func(layer, name string, samples *[]float64, unit float64, call func() bool) {
		id := rec.start(root, layer, name)
		t0 := time.Now()
		ok := call()
		*samples = append(*samples, float64(time.Since(t0).Nanoseconds())/unit)
		rec.end(id, 1)
		e.check(ok, "read_only: %s answered wrongly", name)
	}
	mem := sampleRSS(c.cmd.Process.Pid)
	for start := time.Now(); time.Since(start) < e.seconds; {
		for i := 0; i < 40; i++ {
			p := ref.pairs[next%len(ref.pairs)]
			next++
			timed("hhgbclient", "lookup", &lookups, 1e3, func() bool {
				got, _, err := cl.Lookup(p.src, p.dst)
				return err == nil && got == ref.want[p]
			})
		}
		for i := 0; i < 6; i++ {
			timed("hhgbclient", "topk", &topk, 1e6, func() bool {
				top, err := cl.TopSources(10)
				if err != nil || len(top) != len(wantTop) {
					return false
				}
				for k := range top {
					if top[k].Value != wantTop[k] {
						return false
					}
				}
				return true
			})
		}
		timed("hhgbclient", "summary", &summary, 1e6, func() bool {
			sum, err := cl.Summary()
			return err == nil && sum.TotalPackets == uint64(n)
		})
	}
	rec.end(root, int64(len(lookups)+len(topk)+len(summary)))

	e.quantiles(len(acks), "hhgbclient.ack_p50_ms", "hhgbclient.ack_p99_ms")
	e.quantiles(len(lookups), "lookup_p50_us", "hhgbclient.lookup_p99_us")
	e.quantiles(len(topk), "hhgbclient.topk_p50_ms", "hhgbclient.topk_p95_ms")
	e.quantiles(len(summary), "hhgbclient.summary_p50_ms")
	vals := map[string]float64{
		"setup_s":                    lowest(setups),
		"inserts_per_s":              highest(rates),
		"bench.inserts_per_s_median": median(rates),
		"lookup_p50_us":              median(lookups),
		"rss_mb":                     mem.meanMiB(),
		"hhgbclient.ack_p50_ms":      median(acks),
		"hhgbclient.ack_p99_ms":      tail(acks, 0.99),
		"hhgbclient.lookup_p99_us":   tail(lookups, 0.99),
		"hhgbclient.topk_p50_ms":     median(topk),
		"hhgbclient.topk_p95_ms":     tail(topk, 0.95),
		"hhgbclient.summary_p50_ms":  median(summary),
	}
	if rec != nil {
		text, err := c.scrape()
		if err != nil {
			return nil, err
		}
		serverMetrics(text, vals)
	}
	return vals, nil
}
