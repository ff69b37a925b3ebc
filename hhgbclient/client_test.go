package hhgbclient_test

import (
	"bufio"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hhgb"
	"hhgb/hhgbclient"
	"hhgb/internal/server"
)

// startServer runs an in-process ingest server over a fresh matrix.
func startServer(t *testing.T, dim uint64, cfg server.Config) (*server.Server, *hhgb.Sharded, string) {
	t.Helper()
	m, err := hhgb.NewSharded(dim, hhgb.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	cfg.Matrix = m
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, m, ln.Addr().String()
}

func TestClientRoundTrip(t *testing.T) {
	_, _, addr := startServer(t, 1<<20, server.Config{})
	c, err := hhgbclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Dim() != 1<<20 || c.Shards() != 2 || c.Durable() {
		t.Fatalf("handshake: dim %d shards %d durable %v", c.Dim(), c.Shards(), c.Durable())
	}
	if err := c.Append([]uint64{7, 7}, []uint64{8, 8}); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendWeighted([]uint64{9}, []uint64{10}, []uint64{5}); err != nil {
		t.Fatal(err)
	}
	// Program order: a query right after Append observes it (the local
	// buffer ships ahead of the query frame).
	v, found, err := c.Lookup(7, 8)
	if err != nil || !found || v != 2 {
		t.Fatalf("Lookup(7,8) = %d, %v, %v; want 2", v, found, err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Entries != 2 || sum.TotalPackets != 7 {
		t.Fatalf("Summary = %+v", sum)
	}
	top, err := c.TopSources(1)
	if err != nil || len(top) != 1 || top[0] != (hhgb.Ranked{ID: 9, Value: 5}) {
		t.Fatalf("TopSources = %v, %v", top, err)
	}
	dsts, err := c.TopDestinations(2)
	if err != nil || len(dsts) != 2 || dsts[0] != (hhgb.Ranked{ID: 10, Value: 5}) {
		t.Fatalf("TopDestinations = %v, %v", dsts, err)
	}
	if err := c.Checkpoint(); !errors.Is(err, hhgbclient.ErrRejected) {
		t.Fatalf("Checkpoint on non-durable server = %v, want ErrRejected", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Append([]uint64{1}, []uint64{2}); !errors.Is(err, hhgbclient.ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}

// streamDeterministic appends batches*perBatch edges in a client-unique
// region and returns the edges for the reference matrix.
func streamDeterministic(t *testing.T, c *hhgbclient.Client, id, batches, perBatch int, dim uint64) (src, dst, wgt []uint64) {
	t.Helper()
	for b := 0; b < batches; b++ {
		s := make([]uint64, perBatch)
		d := make([]uint64, perBatch)
		w := make([]uint64, perBatch)
		for k := 0; k < perBatch; k++ {
			x := uint64(id)<<32 | uint64(b*perBatch+k)
			s[k] = (x * 2654435761) % dim
			d[k] = (x*2246822519 + 3) % dim
			w[k] = uint64(k%7 + 1)
		}
		if err := c.AppendWeighted(s, d, w); err != nil {
			t.Errorf("client %d: %v", id, err)
			return
		}
		src = append(src, s...)
		dst = append(dst, d...)
		wgt = append(wgt, w...)
	}
	return src, dst, wgt
}

// TestConcurrentClientsMatchReference streams from several concurrent
// clients and proves the server matrix ends bit-identical to a flat
// reference fed the same stream.
func TestConcurrentClientsMatchReference(t *testing.T) {
	const (
		dim      = uint64(1) << 24
		clients  = 4
		batches  = 30
		perBatch = 257 // deliberately not a divisor of the flush threshold
	)
	_, m, addr := startServer(t, dim, server.Config{})
	var (
		mu               sync.Mutex
		refS, refD, refW []uint64
		wg               sync.WaitGroup
	)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := hhgbclient.Dial(addr, hhgbclient.WithFlushEntries(512))
			if err != nil {
				t.Error(err)
				return
			}
			s, d, w := streamDeterministic(t, c, id, batches, perBatch, dim)
			if err := c.Flush(); err != nil {
				t.Errorf("client %d flush: %v", id, err)
			}
			if err := c.Close(); err != nil {
				t.Errorf("client %d close: %v", id, err)
			}
			mu.Lock()
			refS = append(refS, s...)
			refD = append(refD, d...)
			refW = append(refW, w...)
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	ref, err := hhgb.New(dim)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.UpdateWeighted(refS, refD, refW); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, m, ref)
}

// assertSameState compares a sharded matrix's full contents and summary
// against a flat reference.
func assertSameState(t *testing.T, got *hhgb.Sharded, want *hhgb.TrafficMatrix) {
	t.Helper()
	type cell struct{ s, d, v uint64 }
	var g, w []cell
	if err := got.Do(func(s, d, v uint64) bool { g = append(g, cell{s, d, v}); return true }); err != nil {
		t.Fatal(err)
	}
	if err := want.Do(func(s, d, v uint64) bool { w = append(w, cell{s, d, v}); return true }); err != nil {
		t.Fatal(err)
	}
	if len(g) != len(w) {
		t.Fatalf("entry count %d != reference %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("entry %d: %+v != reference %+v", i, g[i], w[i])
		}
	}
	gs, err := got.Summary()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := want.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if gs != ws {
		t.Fatalf("summary %+v != reference %+v", gs, ws)
	}
}

// TestBatchedVsSingleFrameThroughput streams the same entries once as
// single-entry frames and once as 4096-entry frames: framing must be
// invisible in the result, so both servers end with identical Summary
// totals equal to the entries sent. The rate ratio is only logged — it is
// measured on the benchmark ladder (hhgbclient.append_ns_per_entry:
// wire_stream_mixed's 8-entry frames vs wire_durable's 4096-entry frames).
func TestBatchedVsSingleFrameThroughput(t *testing.T) {
	const dim = uint64(1) << 24
	const entries = 20_000
	src := make([]uint64, entries)
	dst := make([]uint64, entries)
	for i := range src {
		src[i] = (uint64(i) * 2654435761) % dim
		dst[i] = (uint64(i)*2246822519 + 3) % dim
	}
	run := func(flushEntries int) (hhgb.Summary, float64) {
		_, _, addr := startServer(t, dim, server.Config{})
		c, err := hhgbclient.Dial(addr,
			hhgbclient.WithFlushEntries(flushEntries),
			hhgbclient.WithMaxPending(1024),
			hhgbclient.WithFlushInterval(0))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		start := time.Now()
		if flushEntries == 1 {
			for i := 0; i < entries; i++ {
				if err := c.Append(src[i:i+1], dst[i:i+1]); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := c.Append(src, dst); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		rate := float64(entries) / time.Since(start).Seconds()
		sum, err := c.Summary()
		if err != nil {
			t.Fatal(err)
		}
		return sum, rate
	}
	singleSum, single := run(1)
	batchedSum, batched := run(4096)
	t.Logf("single-frame: %.0f inserts/s, batched: %.0f inserts/s (%.1fx)", single, batched, batched/single)
	if singleSum != batchedSum {
		t.Fatalf("single-frame summary %+v != batched summary %+v", singleSum, batchedSum)
	}
	if batchedSum.TotalPackets != entries {
		t.Fatalf("server holds %d packets, sent %d", batchedSum.TotalPackets, entries)
	}
}

// TestFullWindowConcurrentShippersNoDuplicates drives the narrowest
// pipelining race: a window of one unacked frame, a fast background
// flusher, and several appending goroutines all contending to ship the
// same buffer. Every entry must reach the server exactly once — a
// shipper that sizes its frame before waiting on the window re-sends
// drained entries.
func TestFullWindowConcurrentShippersNoDuplicates(t *testing.T) {
	_, _, addr := startServer(t, 1<<20, server.Config{})
	c, err := hhgbclient.Dial(addr,
		hhgbclient.WithMaxPending(1),
		hhgbclient.WithFlushEntries(64),
		hhgbclient.WithFlushInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const (
		producers = 4
		appends   = 200
		perAppend = 16
	)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			src := make([]uint64, perAppend)
			dst := make([]uint64, perAppend)
			for a := 0; a < appends; a++ {
				for k := range src {
					x := uint64(p)<<40 | uint64(a*perAppend+k)
					src[k] = x % (1 << 20)
					dst[k] = (x * 31) % (1 << 20)
				}
				if err := c.Append(src, dst); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(producers * appends * perAppend); sum.TotalPackets != want {
		t.Fatalf("server holds %d packets, want exactly %d (lost or duplicated frames)", sum.TotalPackets, want)
	}
}

func TestOverloadSurfacesAndReconnectRecovers(t *testing.T) {
	_, _, addr := startServer(t, 1<<20, server.Config{MaxInFlight: 4})
	c, err := hhgbclient.Dial(addr, hhgbclient.WithFlushEntries(8), hhgbclient.WithFlushInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// An 8-entry frame exceeds the server's budget of 4: dropped with an
	// overload error, which must stick.
	if err := c.Append(make([]uint64, 8), make([]uint64, 8)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := c.Err(); !errors.Is(err, hhgbclient.ErrOverloaded) {
		t.Fatalf("sticky error = %v, want ErrOverloaded", err)
	}
	if err := c.Flush(); !errors.Is(err, hhgbclient.ErrOverloaded) {
		t.Fatalf("Flush after overload = %v, want ErrOverloaded", err)
	}
	// The overloaded frame is definitively gone: it must leave the
	// retransmit ring (replaying it after later frames advanced the
	// session frontier would be silently dedup-dropped, masking the loss).
	if n := c.Unacked(); n != 0 {
		t.Fatalf("overloaded frame still in retransmit ring: %d unacked", n)
	}
	// Reconnect acknowledges the loss; smaller batches then fit.
	if err := c.Reconnect(); err != nil {
		t.Fatal(err)
	}
	if err := c.Append([]uint64{1, 2}, []uint64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Summary()
	if err != nil || sum.Entries != 2 {
		t.Fatalf("after reconnect Summary = %+v, %v", sum, err)
	}
}

// TestAutoReconnect severs the client's server and brings a new one up on
// the same address: a loss-free client with WithReconnect resumes
// transparently.
func TestAutoReconnect(t *testing.T) {
	m1, err := hhgb.NewSharded(1<<20, hhgb.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Close()
	s1, err := server.New(server.Config{Matrix: m1})
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln1.Addr().String()
	go s1.Serve(ln1)

	c, err := hhgbclient.Dial(addr, hhgbclient.WithReconnect())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Append([]uint64{5}, []uint64{6}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil { // all acked: the session is loss-free
		t.Fatal(err)
	}
	s1.Close()

	// Second server, same address, fresh matrix.
	m2, err := hhgb.NewSharded(1<<20, hhgb.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	s2, err := server.New(server.Config{Matrix: m2})
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go s2.Serve(ln2)
	defer s2.Close()

	// The first call(s) after the cut may fail while the death is still
	// being noticed; the client must recover without manual Reconnect.
	var sum hhgb.Summary
	deadline := time.Now().Add(10 * time.Second)
	for {
		sum, err = c.Summary()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no auto-reconnect before deadline; last error: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if sum.Entries != 0 {
		t.Fatalf("fresh server Summary = %+v", sum)
	}
	if n := c.Unacked(); n != 0 {
		t.Fatalf("loss-free session holds %d unacked frames after Flush", n)
	}
	if err := c.Append([]uint64{1}, []uint64{2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, found, err := c.Lookup(1, 2); err != nil || !found || v != 1 {
		t.Fatalf("Lookup after reconnect = %d, %v, %v", v, found, err)
	}
}

// TestRetransmitAfterSeverExactlyOnce severs the connection while insert
// frames may still be unacked in the retransmit ring, brings a new server
// up over the SAME matrix (so the session table survives, as it does
// across a durable server's restart), and proves the resumed session
// replays exactly the frames the first server never applied: the final
// matrix is bit-identical to the sent stream — nothing lost, nothing
// doubled, whichever side of the ack each frame was severed on.
func TestRetransmitAfterSeverExactlyOnce(t *testing.T) {
	const dim = uint64(1) << 20
	m, err := hhgb.NewSharded(dim, hhgb.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s1, err := server.New(server.Config{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln1.Addr().String()
	go s1.Serve(ln1)

	c, err := hhgbclient.Dial(addr, hhgbclient.WithReconnect(),
		hhgbclient.WithFlushEntries(32), hhgbclient.WithFlushInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// First half ships ~10 frames; the server dies right behind them, so
	// any suffix may be unacked (or acked but the ack severed) — the
	// retransmit ring owns whatever is in doubt.
	s1a, d1a, w1a := streamDeterministic(t, c, 1, 5, 64, dim)
	s1.Close()

	s2, err := server.New(server.Config{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go s2.Serve(ln2)
	defer s2.Close()

	// Flush retries until the auto-reconnect lands; success means the ring
	// was replayed under the resumed session and everything is applied.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err = c.Flush(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no reconnect before deadline; last error: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := c.Unacked(); n != 0 {
		t.Fatalf("%d frames unacked after successful Flush", n)
	}

	// Second half proves the resumed session keeps numbering past the
	// frontier instead of colliding with it.
	s1b, d1b, w1b := streamDeterministic(t, c, 2, 5, 64, dim)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	ref, err := hhgb.New(dim)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.UpdateWeighted(append(s1a, s1b...), append(d1a, d1b...), append(w1a, w1b...)); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, m, ref)
}

// startDurableServer runs an in-process server over a durable matrix
// whose WAL fsyncs only at barriers, so the session's durable frontier
// provably trails its accepted one between client Flushes.
func startDurableServer(t *testing.T, dim uint64) (*server.Server, *hhgb.Sharded, string) {
	t.Helper()
	m, err := hhgb.NewSharded(dim, hhgb.WithShards(2),
		hhgb.WithDurability(t.TempDir()), hhgb.WithSyncEvery(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	s, err := server.New(server.Config{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, m, ln.Addr().String()
}

// TestFreshProcessResumeDoesNotLoseNewData is the cross-process resume
// regression: a client flushes a commit point, streams more (acked but
// never flushed), and dies with its retransmit ring. A new process
// resuming the pinned session must mint its seqs above the server's
// minting floor (Welcome.HighSeq, the accepted frontier) — seeding from
// LastSeq (the durable frontier) made it reuse the dead process's seqs,
// and the server acked its new batches as duplicates without applying
// them.
func TestFreshProcessResumeDoesNotLoseNewData(t *testing.T) {
	const dim = uint64(1) << 20
	srv, m, addr := startDurableServer(t, dim)

	batch := func(base uint64) (src, dst, wgt []uint64) {
		for k := uint64(0); k < 4; k++ {
			src = append(src, base+k)
			dst = append(dst, base+k+100)
			wgt = append(wgt, 1)
		}
		return
	}

	c1, err := hhgbclient.Dial(addr, hhgbclient.WithSession("proc-sess"),
		hhgbclient.WithFlushEntries(4), hhgbclient.WithFlushInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	s1, d1, w1 := batch(1000)
	if err := c1.AppendWeighted(s1, d1, w1); err != nil {
		t.Fatal(err)
	}
	if err := c1.Flush(); err != nil { // the process's commit point
		t.Fatal(err)
	}
	s2, d2, w2 := batch(2000)
	if err := c1.AppendWeighted(s2, d2, w2); err != nil {
		t.Fatal(err)
	}
	// "Process death" mid-interval: abandon c1 without Close — a Goodbye
	// would drain with a full Flush and advance the durable frontier,
	// hiding the gap. Wait until the server accepted the in-flight frame
	// (the dead process's ack may or may not have arrived; irrelevant),
	// leaving accepted ahead of durable — the exact gap a fresh process
	// used to mint into.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().InsertBatches < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("server never accepted the unflushed frame (batches=%d)", srv.Stats().InsertBatches)
		}
		time.Sleep(2 * time.Millisecond)
	}

	c2, err := hhgbclient.Dial(addr, hhgbclient.WithSession("proc-sess"),
		hhgbclient.WithFlushEntries(4), hhgbclient.WithFlushInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	s3, d3, w3 := batch(3000)
	if err := c2.AppendWeighted(s3, d3, w3); err != nil {
		t.Fatal(err)
	}
	if err := c2.Flush(); err != nil {
		t.Fatal(err)
	}

	ref, err := hhgb.New(dim)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][3][]uint64{{s1, d1, w1}, {s2, d2, w2}, {s3, d3, w3}} {
		if err := ref.UpdateWeighted(b[0], b[1], b[2]); err != nil {
			t.Fatal(err)
		}
	}
	assertSameState(t, m, ref)
}

// TestMaxRingAutoBarrierBoundsRing pins WithMaxRing: on a durable server
// a producer that never calls Flush must not grow the retransmit ring
// past the bound — the client inserts its own pipelined Flush barriers,
// whose acks let the ring forget covered frames.
func TestMaxRingAutoBarrierBoundsRing(t *testing.T) {
	const dim = uint64(1) << 20
	_, m, addr := startDurableServer(t, dim)
	c, err := hhgbclient.Dial(addr, hhgbclient.WithSession("ring-sess"),
		hhgbclient.WithFlushEntries(1), hhgbclient.WithFlushInterval(0),
		hhgbclient.WithMaxRing(8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// 256 one-entry frames, never an explicit Flush. Without the auto
	// barrier every one of them would sit in the ring (acks alone do not
	// retire frames on a durable server).
	src, dst, wgt := make([]uint64, 0, 256), make([]uint64, 0, 256), make([]uint64, 0, 256)
	for k := uint64(0); k < 256; k++ {
		src = append(src, k+1)
		dst = append(dst, k+500)
		wgt = append(wgt, 1)
		if err := c.AppendWeighted(src[k:], dst[k:], wgt[k:]); err != nil {
			t.Fatal(err)
		}
	}
	// The bound is approximate while streaming (frames in flight when a
	// barrier trips still join the ring), but once the producer goes
	// quiet the barriers chain until the ring converges below the bound
	// — nowhere near the 256 an unbounded ring would hold. Poll: ring
	// trimming rides async acks.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := c.Unacked(); n < 8 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("ring held %d frames, want < 8 (auto barriers never trimmed)", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := c.Unacked(); n != 0 {
		t.Fatalf("%d frames unacked after explicit Flush", n)
	}
	ref, err := hhgb.New(dim)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.UpdateWeighted(src, dst, wgt); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, m, ref)
}

// buildServe compiles cmd/hhgb-serve once per test run.
func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hhgb-serve")
	cmd := exec.Command("go", "build", "-o", bin, "hhgb/cmd/hhgb-serve")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building hhgb-serve: %v\n%s", err, out)
	}
	return bin
}

// TestKillNineDurableServerRecovers is the acceptance-criterion test: a
// durable server is killed with SIGKILL mid-stream, and the recovered
// directory must hold a state bit-identical to everything the clients
// were durably acked — proven against a flat reference matrix fed exactly
// the acked stream, via full iteration and the pushdown queries.
func TestKillNineDurableServerRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill -9 test in -short mode")
	}
	bin := buildServe(t)
	dir := filepath.Join(t.TempDir(), "state")
	const dim = uint64(1) << 20

	// -sync-every huge: the WAL fsyncs only at barriers (client Flush /
	// Checkpoint), so the post-checkpoint tail is guaranteed undurable —
	// the sharpest possible crash window.
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-scale", "20", "-shards", "2",
		"-durable", dir, "-sync-every", "1000000")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	sc := bufio.NewScanner(stdout)
	var addr string
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
			addr = a
			break
		}
	}
	if addr == "" {
		t.Fatalf("server never reported its address (scan err %v)", sc.Err())
	}

	// Concurrent clients stream their loads; Flush guarantees every batch
	// is applied and fsynced before we record the reference.
	const clients = 2
	var (
		mu               sync.Mutex
		refS, refD, refW []uint64
		wg               sync.WaitGroup
		conns            [clients]*hhgbclient.Client
	)
	for id := 0; id < clients; id++ {
		c, err := hhgbclient.Dial(addr, hhgbclient.WithFlushEntries(256))
		if err != nil {
			t.Fatal(err)
		}
		if !c.Durable() {
			t.Fatal("server did not report durability")
		}
		conns[id] = c
		wg.Add(1)
		go func(id int, c *hhgbclient.Client) {
			defer wg.Done()
			s, d, w := streamDeterministic(t, c, id, 25, 199, dim)
			if err := c.Flush(); err != nil {
				t.Errorf("client %d flush: %v", id, err)
				return
			}
			mu.Lock()
			refS = append(refS, s...)
			refD = append(refD, d...)
			refW = append(refW, w...)
			mu.Unlock()
		}(id, conns[id])
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Record the acked state through the wire, then checkpoint it.
	ackedSum, err := conns[0].Summary()
	if err != nil {
		t.Fatal(err)
	}
	ackedTop, err := conns[0].TopSources(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := conns[0].Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Undurable tail: accepted, maybe acked, never flushed — its loss is
	// exactly what group commit promises.
	for id, c := range conns {
		tail := make([]uint64, 256)
		for k := range tail {
			tail[k] = uint64(id*1000 + k + 1)
		}
		if err := c.Append(tail, tail); err != nil {
			t.Fatal(err)
		}
	}

	killed = true
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no checkpoint
		t.Fatal(err)
	}
	cmd.Wait()

	// Recover in-process (the kernel released the dead server's flock).
	rec, err := hhgb.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	ref, err := hhgb.New(dim)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.UpdateWeighted(refS, refD, refW); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, rec, ref)

	recSum, err := rec.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if recSum != ackedSum {
		t.Fatalf("recovered Summary %+v != acked-over-the-wire %+v", recSum, ackedSum)
	}
	recTop, err := rec.TopSources(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recTop) != len(ackedTop) {
		t.Fatalf("recovered TopSources %v != acked %v", recTop, ackedTop)
	}
	for i := range recTop {
		if recTop[i] != ackedTop[i] {
			t.Fatalf("recovered TopSources[%d] %+v != acked %+v", i, recTop[i], ackedTop[i])
		}
	}
	// Spot-check pushdown lookups across the acked stream.
	for i := 0; i < len(refS); i += 997 {
		want, wantFound, err := ref.Lookup(refS[i], refD[i])
		if err != nil {
			t.Fatal(err)
		}
		got, gotFound, err := rec.Lookup(refS[i], refD[i])
		if err != nil || got != want || gotFound != wantFound {
			t.Fatalf("Lookup(%d,%d) = %d,%v,%v; want %d,%v", refS[i], refD[i], got, gotFound, err, want, wantFound)
		}
	}
	// The tail must be gone: recovery restored the checkpoint exactly.
	if v, found, err := rec.Lookup(1001, 1001); err != nil || found {
		t.Fatalf("undurable tail cell survived: %d, %v, %v", v, found, err)
	}
}
