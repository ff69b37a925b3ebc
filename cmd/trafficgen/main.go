// Command trafficgen generates power-law edge streams — the paper's
// workload — as TSV (row<TAB>col<TAB>count), the compact binary matrix
// format, or a live network stream into a running hhgb-serve instance.
//
// Usage:
//
//	trafficgen [-edges N] [-scale S] [-gen rmat|pareto] [-alpha F] [-seed N]
//	           [-rate R] [-start T] [-format tsv|matrix] [-o file]
//	trafficgen -connect host:port [-conns N] [-batch N] [-edges N] [-scale S] [-gen ...] [-seed N] [-rate R] [-start T]
//	           [-verify] [-query-rate R] [-queries N]
//
// With -connect, the generator becomes a load driver: -conns client
// connections stream -edges edges total (split evenly) as batched insert
// frames of -batch entries, then Flush — so the run ends at a durable
// point on a durable server — and report the aggregate insert rate plus
// client-observed ack latency (ship → server ack) as p50/p99/max across
// every acked frame on every connection.
// Several trafficgen processes can hammer one server concurrently; each
// should get its own -seed.
//
// Streams are deterministic per seed: two runs with the same -seed, -gen,
// -scale and -alpha produce identical edges, so any run is replayable
// from its flag line alone. -seed 0 asks for a fresh stream instead: one
// seed is drawn at random, logged, and then used exactly like an explicit
// seed — so an exploratory run that hits something interesting is
// replayed by copying the logged value.
//
// The driver clients run exactly-once sessions with auto-reconnect: a
// server restart mid-run (even kill -9 of a durable server) only pauses
// the stream — unacked frames retransmit under the resumed session and
// nothing lands twice. -verify closes the loop: after the final Flush it
// compares the server's packet total against the weights actually
// generated and exits nonzero on any mismatch, so a smoke run that kills
// and restarts the server still asserts the exact -edges count landed.
//
// With -rate, edges carry event timestamps advancing 1/R seconds per edge
// from -start (unix seconds): TSV output gains a fourth ts column
// (nanoseconds), and -connect streams timestamped inserts — required
// against a windowed hhgb-serve, whose window duration the client learns
// in the handshake and uses to cut frames at window boundaries.
//
// The driver can mix reads into the run: -query-rate R paces a mixed
// read workload (lookup, top-k, summary; plus their range forms on a
// timestamped stream) on a dedicated connection while the stream runs,
// and -queries N issues exactly N rounds of that mix after the final
// Flush — a deterministic count smoke checks can assert against the
// server's query metrics.
package main

import (
	"bufio"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hhgb"
	"hhgb/hhgbclient"
	"hhgb/internal/gb"
	"hhgb/internal/powerlaw"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trafficgen: ")
	var (
		edges     = flag.Int("edges", 1_000_000, "edges to generate")
		scale     = flag.Int("scale", 24, "vertex-space scale (2^scale vertices)")
		gen       = flag.String("gen", "rmat", "generator: rmat | pareto")
		alpha     = flag.Float64("alpha", 1.1, "pareto shape (pareto generator only)")
		seed      = flag.Uint64("seed", 1, "generator seed (0 = draw one at random and log it for replay)")
		format    = flag.String("format", "tsv", "output format: tsv | matrix")
		out       = flag.String("o", "-", "output file (- for stdout)")
		connect   = flag.String("connect", "", "stream to a hhgb-serve address instead of writing a file")
		conns     = flag.Int("conns", 1, "client connections (with -connect)")
		batch     = flag.Int("batch", 4096, "entries per insert frame (with -connect)")
		rate      = flag.Float64("rate", 0, "event-time edges per second; 0 = untimestamped edges")
		start     = flag.Int64("start", 1_700_000_000, "event time of the first edge, unix seconds (with -rate)")
		verify    = flag.Bool("verify", false, "after streaming, compare the server's packet total to the generated stream (with -connect)")
		queryRate = flag.Float64("query-rate", 0, "mixed read ops per second on a dedicated connection while the stream runs (with -connect)")
		queries   = flag.Int("queries", 0, "rounds of the mixed read workload to issue after the stream flushes (with -connect; a deterministic count for smoke checks)")
	)
	flag.Parse()
	if *seed == 0 {
		*seed = drawSeed()
		log.Printf("-seed 0: drew seed %d; replay this exact stream with -seed %d", *seed, *seed)
	}
	if *connect != "" {
		if err := runConnect(*connect, *conns, *batch, *edges, *scale, *gen, *alpha, *seed, *rate, *start, *verify, *queryRate, *queries); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(*edges, *scale, *gen, *alpha, *seed, *format, *out, *rate, *start); err != nil {
		log.Fatal(err)
	}
}

// drawSeed returns a nonzero random seed for -seed 0 runs. The draw comes
// from the OS entropy source, not the generator family itself, so the
// drawn seed carries no structure the stream could correlate with.
func drawSeed() uint64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		log.Fatalf("drawing a random seed: %v", err)
	}
	s := binary.LittleEndian.Uint64(b[:])
	if s == 0 {
		s = 1 // zero means "draw" on the flag; never use it as a seed
	}
	return s
}

// stamper assigns event timestamps: edge k happens k/rate seconds after
// the start time. A nil stamper means untimestamped generation.
func newStamper(rate float64, startSec int64) func(k int) int64 {
	if rate <= 0 {
		return nil
	}
	startNs := startSec * int64(time.Second)
	return func(k int) int64 {
		return startNs + int64(float64(k)*float64(time.Second)/rate)
	}
}

// newGen builds one edge generator; each connection gets its own (with a
// distinct seed) so streams never share state.
func newGen(gen string, scale int, alpha float64, seed uint64) (func() powerlaw.Edge, error) {
	switch gen {
	case "rmat":
		g, err := powerlaw.NewRMAT(scale, seed)
		if err != nil {
			return nil, err
		}
		return g.Edge, nil
	case "pareto":
		p, err := powerlaw.NewParetoPairs(gb.Index(1)<<uint(scale), alpha, seed)
		if err != nil {
			return nil, err
		}
		return p.Edge, nil
	default:
		return nil, fmt.Errorf("unknown generator %q (want rmat or pareto)", gen)
	}
}

// retryTransient retries op while the server is briefly away (a restart
// mid-run): the client's auto-reconnect re-dials on the next call, but
// that dial keeps failing until the server is back on the address.
// Definitive outcomes — success, an explicitly dropped batch, a closed
// client — surface immediately; only transient unreachability is retried.
func retryTransient(op func() error) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := op()
		if err == nil ||
			errors.Is(err, hhgbclient.ErrOverloaded) ||
			errors.Is(err, hhgbclient.ErrRejected) ||
			errors.Is(err, hhgbclient.ErrClosed) ||
			time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// ackStats aggregates client-observed ack round trips across every
// connection. Each client calls the observer from whichever goroutine
// reads the ack, and the clients share it, so the append is
// mutex-guarded; one duration per acked frame is cheap next to the frame
// itself.
type ackStats struct {
	mu      sync.Mutex
	samples []time.Duration
}

func (a *ackStats) observe(d time.Duration) {
	a.mu.Lock()
	a.samples = append(a.samples, d)
	a.mu.Unlock()
}

// report logs p50/p99/max over the collected round trips, if any.
func (a *ackStats) report() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.samples) == 0 {
		return
	}
	sort.Slice(a.samples, func(i, j int) bool { return a.samples[i] < a.samples[j] })
	q := func(p float64) time.Duration {
		i := int(p * float64(len(a.samples)-1))
		return a.samples[i]
	}
	log.Printf("ack latency over %d frames: p50 %v, p99 %v, max %v",
		len(a.samples), q(0.50), q(0.99), a.samples[len(a.samples)-1])
}

// readMix builds the mixed read workload behind -query-rate and
// -queries: point lookup, top-k, and summary, plus their range forms on
// a timestamped (windowed) stream. The lookup probes the workload's own
// first edge, so it always exercises a live cell; the range ops span the
// whole stream.
func readMix(c *hhgbclient.Client, gen string, scale int, alpha float64, seed uint64, stamp func(k int) int64, edges int) ([]func() error, error) {
	next, err := newGen(gen, scale, alpha, seed)
	if err != nil {
		return nil, err
	}
	e := next()
	ops := []func() error{
		func() error { _, _, err := c.Lookup(e.Row, e.Col); return err },
		func() error { _, err := c.TopSources(10); return err },
		func() error { _, err := c.Summary(); return err },
	}
	if stamp != nil {
		t0 := time.Unix(0, stamp(0))
		t1 := time.Unix(0, stamp(edges-1)+1)
		ops = append(ops,
			func() error { _, _, err := c.RangeLookup(e.Row, e.Col, t0, t1); return err },
			func() error { _, err := c.RangeTopSources(10, t0, t1); return err },
			func() error { _, err := c.RangeSummary(t0, t1); return err },
		)
	}
	return ops, nil
}

// runConnect streams the workload into a server over conns connections
// and reports the aggregate rate.
func runConnect(addr string, conns, batch, edges, scale int, gen string, alpha float64, seed uint64, rate float64, startSec int64, verify bool, queryRate float64, queries int) error {
	if conns < 1 {
		return fmt.Errorf("-conns %d < 1", conns)
	}
	per := edges / conns
	if per < 1 {
		return fmt.Errorf("-edges %d gives no work for %d conns", edges, conns)
	}
	// The remainder rides on the last connection, so exactly -edges edges
	// are streamed whatever the split.
	rem := edges % conns
	var (
		wg          sync.WaitGroup
		errMu       sync.Mutex
		first       error
		sentPackets atomic.Uint64 // total weight streamed and flushed
	)
	fail := func(err error) {
		errMu.Lock()
		if first == nil {
			first = err
		}
		errMu.Unlock()
	}
	var acks ackStats
	// -query-rate: a dedicated connection paces the mixed read workload
	// while the stream runs — reads contending with writes, the shape the
	// query observability plane is built to explain.
	stopReads := make(chan struct{})
	var readsDone sync.WaitGroup
	var readsIssued atomic.Uint64
	if queryRate > 0 {
		readsDone.Add(1)
		go func() {
			defer readsDone.Done()
			qc, err := hhgbclient.Dial(addr, hhgbclient.WithReconnect())
			if err != nil {
				log.Printf("query-rate: dial: %v", err)
				return
			}
			defer qc.Close()
			ops, err := readMix(qc, gen, scale, alpha, seed, newStamper(rate, startSec), edges)
			if err != nil {
				log.Printf("query-rate: %v", err)
				return
			}
			tick := time.NewTicker(time.Duration(float64(time.Second) / queryRate))
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-stopReads:
					return
				case <-tick.C:
				}
				if err := retryTransient(ops[i%len(ops)]); err != nil {
					log.Printf("query-rate: %v", err)
					return
				}
				readsIssued.Add(1)
			}
		}()
	}
	start := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mine := per
			if i == conns-1 {
				mine += rem
			}
			next, err := newGen(gen, scale, alpha, seed+uint64(i)*0x9e3779b9)
			if err != nil {
				fail(err)
				return
			}
			c, err := hhgbclient.Dial(addr, hhgbclient.WithFlushEntries(batch), hhgbclient.WithReconnect(),
				hhgbclient.WithAckLatency(acks.observe))
			if err != nil {
				fail(fmt.Errorf("conn %d: %w", i, err))
				return
			}
			defer c.Close()
			stamp := newStamper(rate, startSec)
			if (c.Window() != 0) != (stamp != nil) {
				if stamp == nil {
					fail(fmt.Errorf("conn %d: server is windowed; stream timestamped edges with -rate", i))
				} else {
					fail(fmt.Errorf("conn %d: server is not windowed; drop -rate", i))
				}
				return
			}
			src := make([]uint64, 0, batch)
			dst := make([]uint64, 0, batch)
			wgt := make([]uint64, 0, batch)
			var batchTS int64    // event time of the buffered batch (timestamped mode)
			var myPackets uint64 // weight streamed by this connection
			ship := func() error {
				if len(src) == 0 {
					return nil
				}
				var err error
				if stamp != nil {
					err = c.AppendWeightedAt(time.Unix(0, batchTS), src, dst, wgt)
				} else {
					err = c.AppendWeighted(src, dst, wgt)
				}
				if err != nil {
					// An Append error consumes nothing: the local batch is
					// intact and retryTransient re-ships it verbatim.
					return err
				}
				src, dst, wgt = src[:0], dst[:0], wgt[:0]
				return nil
			}
			for k := 0; k < mine; k++ {
				e := next()
				if stamp != nil {
					// Entries sharing a batch share its event time; cut
					// the batch whenever the stamp leaves the server
					// window holding it, so no edge shifts windows.
					ts := stamp(k)
					w := int64(c.Window())
					if len(src) > 0 && ts-ts%w != batchTS-batchTS%w {
						if err := retryTransient(ship); err != nil {
							fail(fmt.Errorf("conn %d: %w", i, err))
							return
						}
					}
					if len(src) == 0 {
						batchTS = ts
					}
				}
				src = append(src, e.Row)
				dst = append(dst, e.Col)
				wgt = append(wgt, e.Val)
				myPackets += e.Val
				if len(src) == batch {
					if err := retryTransient(ship); err != nil {
						fail(fmt.Errorf("conn %d: %w", i, err))
						return
					}
				}
			}
			if err := retryTransient(ship); err != nil {
				fail(fmt.Errorf("conn %d: %w", i, err))
				return
			}
			if err := retryTransient(c.Flush); err != nil {
				fail(fmt.Errorf("conn %d: flush: %w", i, err))
				return
			}
			sentPackets.Add(myPackets)
		}(i)
	}
	wg.Wait()
	close(stopReads)
	readsDone.Wait()
	if queryRate > 0 {
		log.Printf("query-rate: issued %d reads during the stream", readsIssued.Load())
	}
	if first != nil {
		return first
	}
	elapsed := time.Since(start)
	total := edges
	log.Printf("streamed %d edges over %d conns in %.2fs (%.0f inserts/s, batch %d)",
		total, conns, elapsed.Seconds(), float64(total)/elapsed.Seconds(), batch)
	acks.report()

	// One extra connection reads the server's aggregate view, so a smoke
	// run doubles as an end-to-end query check.
	var sum hhgb.Summary
	if err := retryTransient(func() error {
		c, err := hhgbclient.Dial(addr)
		if err != nil {
			return err
		}
		defer c.Close()
		sum, err = c.Summary()
		return err
	}); err != nil {
		return err
	}
	log.Printf("server summary: %d entries, %d sources, %d destinations, %d packets",
		sum.Entries, sum.Sources, sum.Destinations, sum.TotalPackets)
	if verify {
		if want := sentPackets.Load(); sum.TotalPackets != want {
			return fmt.Errorf("verify: server holds %d packets, stream carried %d (lost or doubled frames)", sum.TotalPackets, want)
		}
		log.Printf("verify: server totals match the sent stream exactly (%d packets)", sentPackets.Load())
	}
	// -queries: a deterministic post-stream read mix — N rounds of every
	// op in order — so smoke checks can assert exact per-family query
	// counts in the server's /metrics.
	if queries > 0 {
		qc, err := hhgbclient.Dial(addr)
		if err != nil {
			return err
		}
		defer qc.Close()
		ops, err := readMix(qc, gen, scale, alpha, seed, newStamper(rate, startSec), edges)
		if err != nil {
			return err
		}
		for r := 0; r < queries; r++ {
			for _, op := range ops {
				if err := retryTransient(op); err != nil {
					return fmt.Errorf("queries round %d: %w", r, err)
				}
			}
		}
		log.Printf("queries: issued %d reads (%d rounds of %d ops)", queries*len(ops), queries, len(ops))
	}
	return nil
}

func run(edges, scale int, gen string, alpha float64, seed uint64, format, out string, rate float64, startSec int64) error {
	next, err := newGen(gen, scale, alpha, seed)
	if err != nil {
		return err
	}
	stamp := newStamper(rate, startSec)
	if stamp != nil && format != "tsv" {
		return fmt.Errorf("-rate timestamps are only representable in tsv output")
	}

	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	switch format {
	case "tsv":
		bw := bufio.NewWriterSize(w, 1<<20)
		for k := 0; k < edges; k++ {
			e := next()
			var err error
			if stamp != nil {
				_, err = fmt.Fprintf(bw, "%d\t%d\t%d\t%d\n", e.Row, e.Col, e.Val, stamp(k))
			} else {
				_, err = fmt.Fprintf(bw, "%d\t%d\t%d\n", e.Row, e.Col, e.Val)
			}
			if err != nil {
				return err
			}
		}
		return bw.Flush()
	case "matrix":
		dim := gb.Index(1) << uint(scale)
		m, err := gb.NewMatrix[uint64](dim, dim)
		if err != nil {
			return err
		}
		const chunk = 1 << 16
		rows := make([]gb.Index, 0, chunk)
		cols := make([]gb.Index, 0, chunk)
		vals := make([]uint64, 0, chunk)
		for k := 0; k < edges; k++ {
			e := next()
			rows = append(rows, e.Row)
			cols = append(cols, e.Col)
			vals = append(vals, e.Val)
			if len(rows) == chunk || k == edges-1 {
				if err := m.AppendTuples(rows, cols, vals); err != nil {
					return err
				}
				rows, cols, vals = rows[:0], cols[:0], vals[:0]
			}
		}
		return gb.Encode(w, m, gb.Uint64Codec[uint64]())
	default:
		return fmt.Errorf("unknown format %q (want tsv or matrix)", format)
	}
}
