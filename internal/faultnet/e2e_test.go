package faultnet_test

import (
	"bufio"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"hhgb"
	"hhgb/hhgbclient"
	"hhgb/internal/faultnet"
	"hhgb/internal/server"
)

// The end-to-end exactly-once proof: a client streams a known edge list
// through the faultnet relay while the transport misbehaves on a script —
// cuts, blackholed acks, duplicated frames, torn frames, and a SIGKILL'd
// durable server — and the matrix that comes out the other side must be
// bit-identical to a reference fed the same list once. Zero lost, zero
// doubled, flat and windowed.

const (
	e2eDim  = uint64(1) << 20
	e2ePer  = 32                   // entries per batch == client flush threshold: one frame per batch
	e2eBase = int64(1_700_000_000) // windowed event-time origin, unix seconds
	e2eStep = 300 * time.Millisecond
	e2eWin  = time.Second
)

// batchFor derives batch b of a client-unique deterministic stream.
func batchFor(id, b int) (src, dst, wgt []uint64) {
	src = make([]uint64, e2ePer)
	dst = make([]uint64, e2ePer)
	wgt = make([]uint64, e2ePer)
	for k := range src {
		x := uint64(id)<<32 | uint64(b*e2ePer+k)
		src[k] = (x * 2654435761) % e2eDim
		dst[k] = (x*2246822519 + 3) % e2eDim
		wgt[k] = uint64(k%7 + 1)
	}
	return src, dst, wgt
}

// batchTime is the event time of batch b (windowed streams).
func batchTime(b int) time.Time {
	return time.Unix(e2eBase, 0).Add(time.Duration(b) * e2eStep)
}

// retryOp drives op through transient faults: with auto-reconnect on the
// client, an error only means the reconnect itself has not landed yet.
func retryOp(t *testing.T, what string, op func() error) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := op()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never recovered: %v", what, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertFlatState compares a sharded matrix bit-for-bit with a flat
// reference: full iteration plus the summary.
func assertFlatState(t *testing.T, got *hhgb.Sharded, want *hhgb.TrafficMatrix) {
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

// assertWindowedState compares a window store against a reference store
// fed the identical timestamped stream: all-time entry count, packet
// total, summary, and spot lookups over the streamed pairs.
func assertWindowedState(t *testing.T, got, want *hhgb.Windowed, refS, refD []uint64) {
	t.Helper()
	gv, err := got.AllTime()
	if err != nil {
		t.Fatal(err)
	}
	wv, err := want.AllTime()
	if err != nil {
		t.Fatal(err)
	}
	ge, err := gv.Entries()
	if err != nil {
		t.Fatal(err)
	}
	we, err := wv.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if ge != we {
		t.Fatalf("all-time entries %d != reference %d", ge, we)
	}
	gp, err := gv.TotalPackets()
	if err != nil {
		t.Fatal(err)
	}
	wp, err := wv.TotalPackets()
	if err != nil {
		t.Fatal(err)
	}
	if gp != wp {
		t.Fatalf("all-time packets %d != reference %d", gp, wp)
	}
	gsum, err := gv.Summary()
	if err != nil {
		t.Fatal(err)
	}
	wsum, err := wv.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if gsum != wsum {
		t.Fatalf("all-time summary %+v != reference %+v", gsum, wsum)
	}
	for i := 0; i < len(refS); i += 53 {
		wantV, wantF, err := wv.Lookup(refS[i], refD[i])
		if err != nil {
			t.Fatal(err)
		}
		gotV, gotF, err := gv.Lookup(refS[i], refD[i])
		if err != nil || gotV != wantV || gotF != wantF {
			t.Fatalf("Lookup(%d,%d) = %d,%v,%v; want %d,%v", refS[i], refD[i], gotV, gotF, err, wantV, wantF)
		}
	}
}

// TestFaultInjectionExactlyOnce is the relay table test: each case scripts
// one transport fault, the client streams 20 deterministic batches with a
// final Flush, and the server matrix must equal the reference exactly.
func TestFaultInjectionExactlyOnce(t *testing.T) {
	cases := []struct {
		name     string
		script   []faultnet.ConnPlan
		minConns int // proves the fault actually forced a reconnect
		wantDups bool
	}{
		// Frame 1 is the Hello; inserts follow one frame per batch. Pure
		// cuts — even with blackholed acks — produce no duplicate frames:
		// the reconnect Welcome reports the accepted frontier and the ring
		// trims to it, so only never-received frames retransmit. Dup drops
		// appear only when the transport itself duplicates (here) or when
		// a durable server's reported frontier trails what its WAL replay
		// restored (the kill -9 test below).
		{"cut-mid-stream", []faultnet.ConnPlan{{CutAfterC2SFrames: 5}}, 2, false},
		{"blackhole-acks", []faultnet.ConnPlan{{BlackholeS2CAfter: 3, CutAfterC2SFrames: 9}}, 2, false},
		// No frame-count cut: the final Flush's ack vanishes and only the
		// relay's idle cut frees the client to reconnect and retransmit.
		{"blackhole-until-idle", []faultnet.ConnPlan{{BlackholeS2CAfter: 3}}, 2, false},
		{"duplicate-delivery", []faultnet.ConnPlan{{DuplicateC2SFrame: 4}}, 1, true},
		{"truncate-mid-frame", []faultnet.ConnPlan{{TruncateC2SFrame: 6}}, 2, false},
		{"double-cut", []faultnet.ConnPlan{{CutAfterC2SFrames: 4}, {CutAfterC2SFrames: 3}}, 3, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := hhgb.NewSharded(e2eDim, hhgb.WithShards(2))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			srv, err := server.New(server.Config{Matrix: m})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			defer srv.Close()
			relay, err := faultnet.New(ln.Addr().String(), tc.script)
			if err != nil {
				t.Fatal(err)
			}
			defer relay.Close()

			c, err := hhgbclient.Dial(relay.Addr(), hhgbclient.WithReconnect(),
				hhgbclient.WithFlushEntries(e2ePer), hhgbclient.WithFlushInterval(0))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var refS, refD, refW []uint64
			for b := 0; b < 20; b++ {
				s, d, w := batchFor(1, b)
				retryOp(t, "append", func() error { return c.AppendWeighted(s, d, w) })
				refS = append(refS, s...)
				refD = append(refD, d...)
				refW = append(refW, w...)
			}
			retryOp(t, "flush", c.Flush)
			if n := c.Unacked(); n != 0 {
				t.Fatalf("%d frames unacked after successful Flush", n)
			}

			ref, err := hhgb.New(e2eDim)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.UpdateWeighted(refS, refD, refW); err != nil {
				t.Fatal(err)
			}
			assertFlatState(t, m, ref)

			if got := relay.Conns(); got < tc.minConns {
				t.Fatalf("relay saw %d connections; the scripted fault should force at least %d", got, tc.minConns)
			}
			if stats := srv.Stats(); tc.wantDups && stats.DuplicatesDropped == 0 {
				t.Fatalf("no duplicates dropped; the fault should have forced a retransmit overlap (stats %+v)", stats)
			}
		})
	}
}

// TestFaultInjectionExactlyOnceWindowed reruns the cut fault against a
// windowed server: retransmitted frames land in their original windows
// (sealed ones recognize replayed seqs instead of re-applying).
func TestFaultInjectionExactlyOnceWindowed(t *testing.T) {
	wm, err := hhgb.NewWindowed(e2eDim, e2eWin, hhgb.WithShards(2))
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
	relay, err := faultnet.New(ln.Addr().String(),
		[]faultnet.ConnPlan{{BlackholeS2CAfter: 3, CutAfterC2SFrames: 8}, {CutAfterC2SFrames: 5}})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	c, err := hhgbclient.Dial(relay.Addr(), hhgbclient.WithReconnect(),
		hhgbclient.WithFlushEntries(e2ePer), hhgbclient.WithFlushInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ref, err := hhgb.NewWindowed(e2eDim, e2eWin)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	var refS, refD []uint64
	for b := 0; b < 20; b++ {
		s, d, w := batchFor(2, b)
		ts := batchTime(b)
		retryOp(t, "append", func() error { return c.AppendWeightedAt(ts, s, d, w) })
		if err := ref.AppendWeighted(ts, s, d, w); err != nil {
			t.Fatal(err)
		}
		refS = append(refS, s...)
		refD = append(refD, d...)
	}
	retryOp(t, "flush", c.Flush)
	if n := c.Unacked(); n != 0 {
		t.Fatalf("%d frames unacked after successful Flush", n)
	}
	assertWindowedState(t, wm, ref, refS, refD)
	if got := relay.Conns(); got < 3 {
		t.Fatalf("relay saw %d connections; the scripted faults should force at least 3", got)
	}
}

// buildServe compiles cmd/hhgb-serve once per test.
func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hhgb-serve")
	out, err := exec.Command("go", "build", "-o", bin, "hhgb/cmd/hhgb-serve").CombinedOutput()
	if err != nil {
		t.Fatalf("building hhgb-serve: %v\n%s", err, out)
	}
	return bin
}

// spawnServe starts hhgb-serve and waits for its listening line.
func spawnServe(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
			go func() { // keep draining so the child never blocks on stdout
				for sc.Scan() {
				}
			}()
			return cmd, a
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatalf("server never reported its address (scan err %v)", sc.Err())
	return nil, ""
}

// TestKillNineMidStreamExactlyOnce SIGKILLs a durable hhgb-serve while
// the stream is in flight — unacked and un-fsynced frames on the wire —
// restarts it on the same address and directory, and requires the
// recovered matrix to hold the full sent stream exactly once. The client
// reconnects through a transparent faultnet relay, which absorbs the
// restart gap by redialing the upstream.
func TestKillNineMidStreamExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill -9 test in -short mode")
	}
	bin := buildServe(t)
	t.Run("flat", func(t *testing.T) { killMidStream(t, bin, false) })
	t.Run("windowed", func(t *testing.T) { killMidStream(t, bin, true) })
}

func killMidStream(t *testing.T, bin string, windowed bool) {
	dir := filepath.Join(t.TempDir(), "state")
	args := []string{"-scale", "20", "-shards", "2", "-durable", dir, "-sync-every", "4"}
	if windowed {
		args = append(args, "-window", e2eWin.String())
	}
	proc, addr := spawnServe(t, bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	alive := true
	defer func() {
		if alive {
			proc.Process.Kill()
			proc.Wait()
		}
	}()
	relay, err := faultnet.New(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	c, err := hhgbclient.Dial(relay.Addr(), hhgbclient.WithReconnect(),
		hhgbclient.WithFlushEntries(e2ePer), hhgbclient.WithFlushInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Durable() {
		t.Fatal("server did not report durability")
	}

	var refW *hhgb.Windowed
	if windowed {
		if refW, err = hhgb.NewWindowed(e2eDim, e2eWin); err != nil {
			t.Fatal(err)
		}
		defer refW.Close()
	}
	var refS, refD, refV []uint64
	sendBatch := func(b int) {
		s, d, w := batchFor(3, b)
		if windowed {
			ts := batchTime(b)
			retryOp(t, "append", func() error { return c.AppendWeightedAt(ts, s, d, w) })
			if err := refW.AppendWeighted(ts, s, d, w); err != nil {
				t.Fatal(err)
			}
		} else {
			retryOp(t, "append", func() error { return c.AppendWeighted(s, d, w) })
		}
		refS = append(refS, s...)
		refD = append(refD, d...)
		refV = append(refV, w...)
	}

	// First half: never flushed, so on this durable server every frame is
	// still in the retransmit ring and the WAL tail is un-fsynced.
	for b := 0; b < 10; b++ {
		sendBatch(b)
	}
	if err := proc.Process.Kill(); err != nil { // SIGKILL: no drain, no checkpoint
		t.Fatal(err)
	}
	proc.Wait()
	alive = false

	// Same address, same directory: the restart recovers the durable
	// prefix and the session table, then the client's resumed session
	// retransmits everything in doubt.
	proc, _ = spawnServe(t, bin, append([]string{"-addr", addr}, args...)...)
	alive = true
	defer func() {
		if alive {
			proc.Process.Kill()
			proc.Wait()
		}
	}()
	for b := 10; b < 20; b++ {
		sendBatch(b)
	}
	retryOp(t, "flush", c.Flush)
	if n := c.Unacked(); n != 0 {
		t.Fatalf("%d frames unacked after successful Flush", n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Graceful stop releases the directory; recover it in-process and
	// compare against the full sent stream.
	if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := proc.Wait(); err != nil {
		t.Fatalf("server exited uncleanly after SIGTERM: %v", err)
	}
	alive = false

	if windowed {
		rec, err := hhgb.RecoverWindowed(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		assertWindowedState(t, rec, refW, refS, refD)
		return
	}
	rec, err := hhgb.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	ref, err := hhgb.New(e2eDim)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.UpdateWeighted(refS, refD, refV); err != nil {
		t.Fatal(err)
	}
	assertFlatState(t, rec, ref)
}
