package main

import (
	"fmt"
	"sync"
	"time"

	"hhgb/hhgbclient"
)

// ackLog collects one client's insert-frame ack round trips, in ms. The
// observer runs on that client's receive goroutine only, and the slice is
// read after a Flush on the same client returned, so it needs no lock.
type ackLog struct{ ms []float64 }

func (a *ackLog) observe(d time.Duration) {
	a.ms = append(a.ms, float64(d.Nanoseconds())/1e6)
}

// dialN opens n connections to c, each with its own ack log.
func dialN(c *child, n int, opts ...hhgbclient.Option) ([]*hhgbclient.Client, []*ackLog, error) {
	clients := make([]*hhgbclient.Client, n)
	logs := make([]*ackLog, n)
	for i := range clients {
		logs[i] = &ackLog{}
		cl, err := hhgbclient.Dial(c.addr, append([]hhgbclient.Option{hhgbclient.WithAckLatency(logs[i].observe)}, opts...)...)
		if err != nil {
			for _, open := range clients[:i] {
				open.Close()
			}
			return nil, nil, fmt.Errorf("dial %s: %w", c.addr, err)
		}
		clients[i] = cl
	}
	return clients, logs, nil
}

// ingestWire streams in[lo:hi] to the server, one goroutine per client,
// FrameEntries per Append call (client p takes every len(clients)-th
// chunk), and returns when every client's Flush has: on a durable server
// that is the group-commit point.
func ingestWire(e *env, clients []*hhgbclient.Client, in *stream, lo, hi int, rec *spanRec, parent int) error {
	step := e.sz.FrameEntries
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for p, cl := range clients {
		wg.Add(1)
		go func(p int, cl *hhgbclient.Client) {
			defer wg.Done()
			id := rec.start(parent, "hhgbclient", "append")
			sent := 0
			for at := lo + p*step; at < hi; at += len(clients) * step {
				end := min(at+step, hi)
				e.attempted.Add(1)
				if err := cl.Append(in.src[at:end], in.dst[at:end]); err != nil {
					errs[p] = fmt.Errorf("Append: %w", err)
					return
				}
				sent += end - at
			}
			rec.end(id, int64(sent))
			id = rec.start(parent, "hhgbclient", "flush")
			e.attempted.Add(1)
			if err := cl.Flush(); err != nil {
				errs[p] = fmt.Errorf("Flush: %w", err)
			}
			rec.end(id, 1)
		}(p, cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// timedLookups asks the store for every sampled pair, checks each answer
// against the reference and, unless samples is nil, appends each round trip
// in µs to it.
func (e *env) timedLookups(wl string, lookup func(src, dst uint64) (uint64, bool, error), ref refs, samples *[]float64) {
	for _, p := range ref.pairs {
		t0 := time.Now()
		got, _, err := lookup(p.src, p.dst)
		if samples != nil {
			*samples = append(*samples, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		e.check(err == nil && got == ref.want[p], "%s: Lookup(%d,%d) = %d, %v; want %d", wl, p.src, p.dst, got, err, ref.want[p])
	}
}

func closeAll(clients []*hhgbclient.Client) {
	for _, cl := range clients {
		cl.Close()
	}
}
