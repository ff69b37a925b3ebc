// Package faultnet is a test-only deterministic fault-injecting TCP
// relay for the hhgb wire protocol. It sits between an hhgbclient and a
// server, parses the byte stream at frame granularity (uvarint length ‖
// kind ‖ body — it never interprets bodies), and executes a scripted
// fault on each connection: cut after the Nth client→server frame,
// blackhole server→client frames (acks vanish while inserts keep
// landing), deliver a client→server frame twice, or tear a frame mid-
// byte and sever. Because the script is indexed by connection order and
// counts frames — not bytes or wall time — a given (script, stream) pair
// replays the identical fault every run, which is what lets the
// exactly-once end-to-end tests assert bit-identical recovery instead of
// "mostly survived".
//
// One fault is bounded by wall time: a blackholing connection whose
// client falls silent (see ConnPlan.BlackholeS2CAfter) is severed after
// blackholeIdleCut, so a client waiting on a vanished ack cannot wait
// forever.
//
// The relay redials a vanished upstream with retries, so a test can
// SIGKILL the real server and restart it on the same address while
// clients reconnect through the relay.
package faultnet

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// maxFrame mirrors proto.MaxFrame (not imported: the relay is protocol-
// shape-only) — a larger length prefix means the stream is torn or
// hostile, and the relay severs rather than buffering it.
const maxFrame = 1 << 24

// blackholeIdleCut severs a blackholing connection once its client has
// sent nothing for this long — the relay's stand-in for a client's ack
// timeout. A client blocked on a vanished ack (a Flush barrier, or its
// last frames before it would have reached CutAfterC2SFrames) sends
// nothing more, so a frame-count cut alone could leave it waiting
// forever. Streaming clients send far more often than this, so the
// frame-count cut still fires first whenever the stream reaches it.
const blackholeIdleCut = 500 * time.Millisecond

// ConnPlan scripts the faults for one relayed connection. The zero value
// is a transparent relay. Frame counts are 1-based and count only the
// direction they name; the client's Hello is client→server frame 1.
type ConnPlan struct {
	// CutAfterC2SFrames severs both directions immediately after relaying
	// this many client→server frames (0 = never).
	CutAfterC2SFrames int
	// CutAfterS2CFrames severs both directions immediately after relaying
	// this many server→client frames (0 = never): the client holds the
	// last response in full, and the connection is dead before its next
	// request.
	CutAfterS2CFrames int
	// BlackholeS2CAfter silently drops every server→client frame after
	// this many have been relayed (0 = relay all). Inserts keep flowing
	// upstream while their acks vanish — the sharpest dedup test, since
	// the server applied frames the client still holds in doubt. Once a
	// frame has been dropped, a client silent for blackholeIdleCut is
	// severed as if by CutAfterC2SFrames.
	BlackholeS2CAfter int
	// DuplicateC2SFrame delivers this client→server frame twice, back to
	// back (0 = none): duplicate delivery without any disconnect.
	DuplicateC2SFrame int
	// TruncateC2SFrame relays only the first half of this client→server
	// frame's bytes and then severs both directions (0 = none): the
	// server sees a frame torn mid-byte.
	TruncateC2SFrame int
}

// Relay is a fault-injecting TCP relay in front of one upstream address.
// Connection i (in accept order) runs Script[i]; connections beyond the
// script relay transparently.
type Relay struct {
	ln       net.Listener
	upstream string
	script   []ConnPlan

	mu    sync.Mutex
	conns int
	open  map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// New starts a relay listening on a fresh loopback port in front of
// upstream. Close it when done.
func New(upstream string, script []ConnPlan) (*Relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &Relay{ln: ln, upstream: upstream, script: script, open: map[net.Conn]struct{}{}}
	r.wg.Add(1)
	go r.serve()
	return r, nil
}

// Addr returns the address clients should dial.
func (r *Relay) Addr() string { return r.ln.Addr().String() }

// Conns returns how many connections the relay has accepted.
func (r *Relay) Conns() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.conns
}

// Close stops accepting, severs every live relayed connection, and waits
// for the relay goroutines to drain.
func (r *Relay) Close() error {
	err := r.ln.Close()
	r.mu.Lock()
	for c := range r.open {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
	return err
}

func (r *Relay) serve() {
	defer r.wg.Done()
	for {
		down, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.mu.Lock()
		var plan ConnPlan
		if r.conns < len(r.script) {
			plan = r.script[r.conns]
		}
		r.conns++
		r.open[down] = struct{}{}
		r.mu.Unlock()
		r.wg.Add(1)
		go r.relay(down, plan)
	}
}

// dialUpstream retries for a while: between a SIGKILL and the restart
// the upstream address refuses connections, and the whole point of the
// relay is to keep reconnecting clients alive across that gap.
func (r *Relay) dialUpstream() (net.Conn, error) {
	deadline := time.Now().Add(15 * time.Second)
	for {
		up, err := net.DialTimeout("tcp", r.upstream, time.Second)
		if err == nil {
			return up, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (r *Relay) relay(down net.Conn, plan ConnPlan) {
	defer r.wg.Done()
	defer r.forget(down)
	up, err := r.dialUpstream()
	if err != nil {
		down.Close()
		return
	}
	defer r.forget(up)
	r.mu.Lock()
	r.open[up] = struct{}{}
	r.mu.Unlock()

	var sever sync.Once
	cut := func() {
		sever.Do(func() {
			down.Close()
			up.Close()
		})
	}
	// dropping is set once the server → client direction has dropped a
	// frame; from then on down carries the idle read deadline.
	var dropping atomic.Bool
	var pair sync.WaitGroup
	pair.Add(2)
	go func() { // client → server: the scripted direction
		defer pair.Done()
		defer cut()
		br := bufio.NewReaderSize(down, 1<<16)
		frames := 0
		for {
			hdr, payload, err := readFrame(br)
			if err != nil {
				return
			}
			frames++
			if dropping.Load() {
				down.SetReadDeadline(time.Now().Add(blackholeIdleCut))
			}
			whole := append(hdr, payload...)
			if plan.TruncateC2SFrame == frames {
				up.Write(whole[:len(whole)/2]) // torn mid-frame, then gone
				return
			}
			if _, err := up.Write(whole); err != nil {
				return
			}
			if plan.DuplicateC2SFrame == frames {
				if _, err := up.Write(whole); err != nil {
					return
				}
			}
			if plan.CutAfterC2SFrames == frames {
				return
			}
		}
	}()
	go func() { // server → client: acks and query responses
		defer pair.Done()
		defer cut()
		br := bufio.NewReaderSize(up, 1<<16)
		frames := 0
		for {
			hdr, payload, err := readFrame(br)
			if err != nil {
				return
			}
			frames++
			if plan.BlackholeS2CAfter > 0 && frames > plan.BlackholeS2CAfter {
				// The ack vanishes; keep draining upstream, and give the
				// client blackholeIdleCut to send again before severing.
				dropping.Store(true)
				down.SetReadDeadline(time.Now().Add(blackholeIdleCut))
				continue
			}
			if _, err := down.Write(append(hdr, payload...)); err != nil {
				return
			}
			if plan.CutAfterS2CFrames == frames {
				return
			}
		}
	}()
	pair.Wait()
	cut()
}

func (r *Relay) forget(c net.Conn) {
	c.Close()
	r.mu.Lock()
	delete(r.open, c)
	r.mu.Unlock()
}

// readFrame reads one wire frame and returns its raw header (the uvarint
// length prefix, verbatim) and payload (kind byte + body).
func readFrame(br *bufio.Reader) (hdr, payload []byte, err error) {
	var length uint64
	var shift uint
	for {
		b, err := br.ReadByte()
		if err != nil {
			return nil, nil, err
		}
		hdr = append(hdr, b)
		length |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
		shift += 7
		if shift > 63 {
			return nil, nil, fmt.Errorf("faultnet: varint overflow")
		}
	}
	if length == 0 || length > maxFrame {
		return nil, nil, fmt.Errorf("faultnet: frame length %d out of range", length)
	}
	payload = make([]byte, length)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, nil, err
	}
	return hdr, payload, nil
}
