package hhgbclient_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hhgb"
	"hhgb/hhgbclient"
	"hhgb/internal/faultnet"
	"hhgb/internal/server"
)

// A call alone on an idle connection reads its own response (the read
// token); the background receiver reads only while a response is owed or
// the connection ever subscribed. These tests pin what that must not
// change: typed failure, reconnect, stray pushes, ordering under
// concurrency, and the per-lookup allocation count.

// newRelay starts a faultnet relay in front of upstream.
func newRelay(t *testing.T, upstream string, script []faultnet.ConnPlan) *faultnet.Relay {
	t.Helper()
	r, err := faultnet.New(upstream, script)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// connErr reports whether err is one of the typed connection failures a
// call may return while the transport misbehaves.
func connErr(err error) bool {
	return errors.Is(err, hhgbclient.ErrDisconnected) || errors.Is(err, hhgbclient.ErrServerClosed)
}

// TestHandshakeAccessorsRaceReconnects reads the handshake accessors in a
// loop while a relay cuts every connection after a few frames and
// WithReconnect rewrites the Welcome on each redial: under -race, an
// unlocked read of the Welcome is reported.
func TestHandshakeAccessorsRaceReconnects(t *testing.T) {
	_, _, addr := startServer(t, 1<<20, server.Config{})
	script := make([]faultnet.ConnPlan, 6)
	for i := range script {
		script[i] = faultnet.ConnPlan{CutAfterC2SFrames: 3} // Hello, then two lookups
	}
	relay := newRelay(t, addr, script)
	c, err := hhgbclient.Dial(relay.Addr(), hhgbclient.WithReconnect(), hhgbclient.WithFlushInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if c.Dim() != 1<<20 || c.Shards() != 2 || c.Durable() || c.Window() != 0 {
				t.Errorf("handshake: dim %d shards %d durable %v window %v", c.Dim(), c.Shards(), c.Durable(), c.Window())
				return
			}
		}
	}()
	for i := 0; relay.Conns() <= len(script); i++ {
		if i > 1000 {
			t.Fatalf("relay reached %d connections in %d lookups", relay.Conns(), i)
		}
		if _, _, err := c.Lookup(1, 2); err != nil && !connErr(err) {
			t.Fatalf("lookup %d: untyped error %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// lookupWithin runs one Lookup and fails the test if it has not returned
// within d.
func lookupWithin(t *testing.T, c *hhgbclient.Client, src, dst uint64, d time.Duration) (uint64, bool, error) {
	t.Helper()
	type result struct {
		v     uint64
		found bool
		err   error
	}
	ch := make(chan result, 1)
	go func() {
		v, found, err := c.Lookup(src, dst)
		ch <- result{v, found, err}
	}()
	select {
	case r := <-ch:
		return r.v, r.found, r.err
	case <-time.After(d):
		t.Fatalf("Lookup(%d, %d) still blocked after %v", src, dst, d)
		return 0, false, nil
	}
}

// TestIdleDeathNoticedByNextCall: nothing reads an idle connection, so a
// server that goes away while it is idle is noticed by the next call's
// own read. That call fails typed and promptly, Err and Unacked agree with
// it, and with WithReconnect a later call resumes the session on a new
// server without a manual Reconnect.
func TestIdleDeathNoticedByNextCall(t *testing.T) {
	for _, reconnect := range []bool{false, true} {
		name := "typed-error"
		if reconnect {
			name = "auto-reconnect"
		}
		t.Run(name, func(t *testing.T) {
			m, err := hhgb.NewSharded(1<<20, hhgb.WithShards(2))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			s1, err := server.New(server.Config{Matrix: m})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			go s1.Serve(ln)

			opts := []hhgbclient.Option{hhgbclient.WithFlushInterval(0)}
			if reconnect {
				opts = append(opts, hhgbclient.WithReconnect())
			}
			c, err := hhgbclient.Dial(addr, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Append([]uint64{5}, []uint64{6}); err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			s1.Close() // the connection is idle: no call is pending on it

			_, _, err = lookupWithin(t, c, 5, 6, 5*time.Second)
			if !connErr(err) {
				t.Fatalf("Lookup on a dead idle connection = %v, want ErrDisconnected or ErrServerClosed", err)
			}
			if e := c.Err(); !connErr(e) {
				t.Fatalf("Err() = %v after the Lookup failed with %v", e, err)
			}
			if n := c.Unacked(); n != 0 {
				t.Fatalf("Unacked() = %d after a successful Flush", n)
			}
			if !reconnect {
				if _, _, err := lookupWithin(t, c, 5, 6, 5*time.Second); !connErr(err) {
					t.Fatalf("second Lookup = %v, want the sticky connection error", err)
				}
				return
			}

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
			v, found, err := lookupWithin(t, c, 5, 6, 5*time.Second)
			if err != nil || !found || v != 1 {
				t.Fatalf("Lookup after the server came back = %d, %v, %v; want 1, true, nil", v, found, err)
			}
			if e := c.Err(); e != nil {
				t.Fatalf("Err() = %v after a successful Lookup", e)
			}
			if n := c.Unacked(); n != 0 {
				t.Fatalf("Unacked() = %d on a resumed loss-free session", n)
			}
		})
	}
}

// TestCancelledSubscriptionStrayFrames: the server keeps pushing a
// cancelled subscription's summaries until the connection closes. A
// connection that ever subscribed is read continuously, so summaries for
// 200+ sealed windows arriving while it has no request pending are drained
// and discarded: the connection stays healthy, is not evicted as a slow
// subscriber, and answers the next query correctly.
func TestCancelledSubscriptionStrayFrames(t *testing.T) {
	const windows = 210
	wm, err := hhgb.NewWindowed(1<<20, time.Second, hhgb.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer wm.Close()
	srv, err := server.New(server.Config{Windowed: wm, SubPatience: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	c, err := hhgbclient.Dial(addr, hhgbclient.WithFlushInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cancel, err := c.Subscribe(hhgbclient.SubscribeAllLevels, func(hhgb.WindowSummary) {})
	if err != nil {
		t.Fatal(err)
	}
	cancel()

	// A second client seals the windows, so the subscribed connection has
	// nothing pending while its stray summaries arrive.
	p, err := hhgbclient.Dial(addr, hhgbclient.WithFlushInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for w := 0; w <= windows; w++ {
		if err := p.AppendAt(winBase.Add(time.Duration(w)*time.Second), []uint64{uint64(w)}, []uint64{uint64(w + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().WindowSummaries < windows {
		if time.Now().After(deadline) {
			t.Fatalf("server pushed %d summaries, want %d", srv.Stats().WindowSummaries, windows)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Longer than SubPatience: a connection nobody read would be evicted
	// by now if its socket had filled.
	time.Sleep(300 * time.Millisecond)

	if err := c.Err(); err != nil {
		t.Fatalf("subscribed connection failed while idle: %v", err)
	}
	v, found, err := lookupWithin(t, c, 7, 8, 5*time.Second)
	if err != nil || !found || v != 1 {
		t.Fatalf("Lookup(7, 8) = %d, %v, %v; want 1, true, nil", v, found, err)
	}
	sum, err := c.Summary()
	if err != nil || sum.TotalPackets != windows+1 {
		t.Fatalf("Summary = %+v, %v; want %d packets", sum, err, windows+1)
	}
	if n := srv.Stats().TotalConns; n != 2 {
		t.Fatalf("server saw %d connections, want 2 (no eviction, no reconnect)", n)
	}
}

// TestCutWhileCallerHoldsReadToken cuts the connection right behind a
// lookup issued on an idle connection — the caller is the one reading
// when the socket dies. The lookup is answered or fails typed, and the
// next call reconnects and answers correctly.
func TestCutWhileCallerHoldsReadToken(t *testing.T) {
	_, _, addr := startServer(t, 1<<20, server.Config{})
	seed, err := hhgbclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.AppendWeighted([]uint64{3}, []uint64{4}, []uint64{9}); err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	// Frame 1 is the Hello, 2 the first lookup; the relay severs both
	// directions right after relaying the second lookup, frame 3.
	relay := newRelay(t, addr, []faultnet.ConnPlan{{CutAfterC2SFrames: 3}})
	c, err := hhgbclient.Dial(relay.Addr(), hhgbclient.WithReconnect(), hhgbclient.WithFlushInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v, found, err := lookupWithin(t, c, 3, 4, 5*time.Second); err != nil || !found || v != 9 {
		t.Fatalf("first Lookup = %d, %v, %v", v, found, err)
	}
	switch v, found, err := lookupWithin(t, c, 3, 4, 5*time.Second); {
	case err != nil && !connErr(err):
		t.Fatalf("Lookup across the cut: untyped error %v", err)
	case err == nil && (!found || v != 9):
		t.Fatalf("Lookup across the cut = %d, %v; want 9", v, found)
	}
	if v, found, err := lookupWithin(t, c, 3, 4, 5*time.Second); err != nil || !found || v != 9 {
		t.Fatalf("Lookup after the cut = %d, %v, %v", v, found, err)
	}
	if n := relay.Conns(); n != 2 {
		t.Fatalf("relay saw %d connections, want 2", n)
	}
}

// TestReadRetriedAfterIdleDeath makes the race TestCutWhileCallerHoldsReadToken
// loses only sometimes happen on every run: the relay severs the
// connection right after delivering the first lookup's response, so the
// connection is dead and idle when the next read starts. Under
// WithReconnect that read, of every kind, succeeds on a fresh connection;
// without it, it fails typed.
func TestReadRetriedAfterIdleDeath(t *testing.T) {
	_, _, addr := startServer(t, 1<<20, server.Config{})
	seed, err := hhgbclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.AppendWeighted([]uint64{3}, []uint64{4}, []uint64{9}); err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	reads := []struct {
		name string
		read func(*hhgbclient.Client) error
	}{
		{"lookup", func(c *hhgbclient.Client) error {
			v, found, err := c.Lookup(3, 4)
			if err == nil && (!found || v != 9) {
				return fmt.Errorf("Lookup = %d, %v; want 9", v, found)
			}
			return err
		}},
		{"topk", func(c *hhgbclient.Client) error {
			top, err := c.TopSources(1)
			if err == nil && (len(top) != 1 || top[0].ID != 3 || top[0].Value != 9) {
				return fmt.Errorf("TopSources = %v; want source 3 at 9", top)
			}
			return err
		}},
		{"summary", func(c *hhgbclient.Client) error {
			s, err := c.Summary()
			if err == nil && s.TotalPackets != 9 {
				return fmt.Errorf("Summary packets = %d; want 9", s.TotalPackets)
			}
			return err
		}},
		{"explain", func(c *hhgbclient.Client) error {
			_, err := c.ExplainLookup(3, 4)
			return err
		}},
	}
	for _, rd := range reads {
		for _, reconnect := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/reconnect=%v", rd.name, reconnect), func(t *testing.T) {
				// Server→client frame 1 is the Welcome, 2 the first
				// lookup's response.
				relay := newRelay(t, addr, []faultnet.ConnPlan{{CutAfterS2CFrames: 2}})
				opts := []hhgbclient.Option{hhgbclient.WithFlushInterval(0)}
				if reconnect {
					opts = append(opts, hhgbclient.WithReconnect())
				}
				c, err := hhgbclient.Dial(relay.Addr(), opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if v, found, err := lookupWithin(t, c, 3, 4, 5*time.Second); err != nil || !found || v != 9 {
					t.Fatalf("first Lookup = %d, %v, %v", v, found, err)
				}
				err = rd.read(c)
				if !reconnect {
					if !connErr(err) {
						t.Fatalf("read on the dead connection = %v, want a typed connection error", err)
					}
					return
				}
				if err != nil {
					t.Fatalf("read on the dead idle connection = %v, want it retried on a fresh one", err)
				}
				if n := relay.Conns(); n != 2 {
					t.Fatalf("relay saw %d connections, want 2", n)
				}
			})
		}
	}
}

// TestConcurrentOpsOneClient runs Append, Lookup, TopSources and
// Subscribe on one client at once, over a relay that cuts the connection
// twice mid-run, so the read token changes hands between callers, the
// receiver, and reconnects. Every query is answered or fails typed, and
// the server's totals equal the stream sent.
func TestConcurrentOpsOneClient(t *testing.T) {
	const (
		batches  = 200
		perBatch = 8
		dim      = uint64(1) << 20
	)
	wm, err := hhgb.NewWindowed(dim, time.Second, hhgb.WithShards(2), hhgb.WithLateness(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer wm.Close()
	srv, err := server.New(server.Config{Windowed: wm})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	relay := newRelay(t, ln.Addr().String(), []faultnet.ConnPlan{{CutAfterC2SFrames: 100}, {CutAfterC2SFrames: 100}})
	c, err := hhgbclient.Dial(relay.Addr(), hhgbclient.WithReconnect(),
		hhgbclient.WithFlushEntries(perBatch), hhgbclient.WithFlushInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	check := func(what string, err error) {
		if err != nil && !connErr(err) {
			t.Errorf("%s: untyped error %v", what, err)
		}
	}
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _, err := c.Lookup(uint64(i%batches), uint64(i%batches)+1)
			check("Lookup", err)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := c.TopSources(3)
			check("TopSources", err)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cancel, err := c.Subscribe(0, func(hhgb.WindowSummary) {})
			check("Subscribe", err)
			if err == nil {
				cancel()
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	var total uint64
	for b := 0; b < batches; b++ {
		src := make([]uint64, perBatch)
		dst := make([]uint64, perBatch)
		wgt := make([]uint64, perBatch)
		for k := range src {
			src[k], dst[k], wgt[k] = uint64(b), uint64(b)+1, uint64(k+1)
			total += wgt[k]
		}
		ts := winBase.Add(time.Duration(b) * 100 * time.Millisecond)
		retryUntil(t, "append", func() error { return c.AppendWeightedAt(ts, src, dst, wgt) })
		time.Sleep(100 * time.Microsecond) // spread the appends over the queries and cuts
	}
	// Both scripted cuts fire while the queries run, not after.
	deadline := time.Now().Add(10 * time.Second)
	for relay.Conns() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("relay saw %d connections; both scripted cuts should have fired", relay.Conns())
		}
		time.Sleep(time.Millisecond)
	}
	retryUntil(t, "flush", c.Flush)
	close(stop)
	wg.Wait()

	if n := c.Unacked(); n != 0 {
		t.Fatalf("%d frames unacked after a successful Flush", n)
	}
	var sum hhgb.Summary
	retryUntil(t, "summary", func() (err error) { sum, err = c.Summary(); return err })
	if sum.TotalPackets != total || sum.Entries != batches {
		t.Fatalf("server holds %d packets in %d cells; sent %d packets in %d cells", sum.TotalPackets, sum.Entries, total, batches)
	}
	var v uint64
	var found bool
	retryUntil(t, "lookup", func() (err error) { v, found, err = c.Lookup(7, 8); return err })
	if !found || v != perBatch*(perBatch+1)/2 {
		t.Fatalf("Lookup(7, 8) = %d, %v", v, found)
	}
}

// retryUntil retries op through typed connection failures while
// WithReconnect redials.
func retryUntil(t *testing.T, what string, op func() error) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := op()
		if err == nil {
			return
		}
		if !connErr(err) || time.Now().After(deadline) {
			t.Fatalf("%s: %v", what, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAllocBudgetIdleLookup pins the allocations of a Lookup on an idle
// connection, client and in-process server together: reading its own
// response must cost the caller nothing the receiver hand-off did not.
func TestAllocBudgetIdleLookup(t *testing.T) {
	const budget = 8
	_, _, addr := startServer(t, 1<<20, server.Config{})
	c, err := hhgbclient.Dial(addr, hhgbclient.WithFlushInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Append([]uint64{1}, []uint64{2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if v, found, err := c.Lookup(1, 2); err != nil || !found || v != 1 {
			t.Fatalf("Lookup = %d, %v, %v", v, found, err)
		}
	})
	t.Logf("idle-connection Lookup: %.1f allocs", allocs)
	if allocs > budget {
		t.Fatalf("idle-connection Lookup allocates %.1f objects, budget is %d", allocs, budget)
	}
}
