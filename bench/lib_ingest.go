package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"hhgb"
)

// runLibIngest is the paper's Fig. 2 measurement through the public facade:
// closed loop, two producers with one Appender each, LibEdges entries in
// SetSize sets into a fresh in-memory hhgb.Sharded per cycle, timed from the
// first Append to the return of Flush. Cycles repeat until the run's seconds
// are spent; every cycle does identical work.
func runLibIngest(e *env, in *stream, rec *spanRec) (map[string]float64, error) {
	n := e.sz.LibEdges
	ref := reference(in, n, e.sz.Lookups, e.seed)
	var setups, rates, rss []float64 // one value per cycle
	var lookups []float64            // every sample of the run
	root := rec.start(0, "bench", "lib_ingest")
	// The store lives in this process, beside the generated input and the
	// reference: rss_mb is what the process holds over this, the store's own.
	idle := residentMiB(os.Getpid())
	var m *hhgb.Sharded
	for start := time.Now(); time.Since(start) < e.seconds || len(rates) < 3; {
		if m != nil {
			m.Close()
		}
		// Set-up: the store, its appenders, and one warm-up set per
		// producer through a throwaway store so pools and the heap are in
		// their steady state before the clock starts.
		t0 := time.Now()
		if err := libIngest(e, in, 2*in.setSize, nil, 0); err != nil {
			return nil, err
		}
		var err error
		if m, err = hhgb.NewSharded(1 << 32); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())

		cyc := rec.start(root, "bench", "cycle")
		mem := sampleRSS(os.Getpid())
		t0 = time.Now()
		if err := libIngestInto(e, m, in, n, rec, cyc); err != nil {
			return nil, err
		}
		rates = append(rates, float64(n)/time.Since(t0).Seconds())
		rss = append(rss, mem.meanMiB()-idle)
		e.check(m.Stats().Updates == int64(n), "lib_ingest: cascades took %d updates, sent %d", m.Stats().Updates, n)

		id := rec.start(cyc, "shard", "lookup")
		e.timedLookups("lib_ingest", m.Lookup, ref, &lookups)
		rec.end(id, int64(len(ref.pairs)))
		rec.end(cyc, int64(n))
	}
	// The totals check materializes the whole matrix, which costs more than
	// a cycle; it runs once, on the last cycle's store.
	sum, err := m.Summary()
	e.check(err == nil && sum.TotalPackets == uint64(n), "lib_ingest: Summary().TotalPackets = %d, %v; want %d", sum.TotalPackets, err, n)
	m.Close()
	rec.end(root, int64(n*len(rates)))
	e.quantiles(len(lookups), "lookup_p50_us")
	return map[string]float64{
		"setup_s":                    lowest(setups),
		"inserts_per_s":              highest(rates),
		"lookup_p50_us":              median(lookups),
		"rss_mb":                     median(rss),
		"bench.inserts_per_s_median": median(rates),
	}, nil
}

// libIngest builds a store, streams the first n entries of in into it and
// closes it.
func libIngest(e *env, in *stream, n int, rec *spanRec, parent int) error {
	m, err := hhgb.NewSharded(1 << 32)
	if err != nil {
		return err
	}
	defer m.Close()
	return libIngestInto(e, m, in, n, rec, parent)
}

// libIngestInto streams in[:n] into m from two producers, set by set, and
// returns when Flush has.
func libIngestInto(e *env, m *hhgb.Sharded, in *stream, n int, rec *spanRec, parent int) error {
	sets := n / in.setSize
	apps := make([]*hhgb.Appender, 2)
	for p := range apps {
		a, err := m.NewAppender()
		if err != nil {
			return err
		}
		apps[p] = a
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for p := range apps {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := p; k < sets; k += 2 {
				lo, hi := k*in.setSize, (k+1)*in.setSize
				id := rec.start(parent, "shard", "append")
				err := apps[p].Append(in.src[lo:hi], in.dst[lo:hi])
				rec.end(id, int64(hi-lo))
				e.attempted.Add(1)
				if err != nil {
					errs[p] = fmt.Errorf("lib_ingest: Append: %w", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	id := rec.start(parent, "shard", "flush")
	err := m.Flush()
	rec.end(id, 1)
	e.attempted.Add(1)
	if err != nil {
		return fmt.Errorf("lib_ingest: Flush: %w", err)
	}
	for p := range apps {
		if err := apps[p].Close(); err != nil {
			return err
		}
	}
	return nil
}
