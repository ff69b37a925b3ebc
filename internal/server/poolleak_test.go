package server

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"hhgb/internal/pool"
	"hhgb/internal/proto"
)

// checkedBatchPool swaps the server's decode-batch free-list for a
// leak-detecting pool.Checked whose poison scrambles returned batches: if
// any stage touches a batch after the applier returned it (use after
// Put), the scrambled coordinates corrupt the matrix and the final
// content check below fails; if any path drops a batch without returning
// it (or returns one twice), Verify fails at drain.
func checkedBatchPool(s *Server) *pool.Checked[*proto.Batch] {
	c := pool.NewChecked(batchPoolCap,
		func() *proto.Batch { return new(proto.Batch) },
		func(b *proto.Batch) {
			for i := range b.Rows {
				b.Rows[i] = 0xA5A5A5A5
				b.Cols[i] = 0x5A5A5A5A
				b.Vals[i] = 0xDEADDEAD
			}
		})
	s.batchPool = c
	return c
}

// leakProducer drives one session over raw protocol connections:
// seeded random insert batches, a mid-stream reconnect that retransmits
// already-acked frames (exercising the duplicate-drop Put path), and a
// final flush. All errors are returned, never Fatal'd — this runs in a
// goroutine.
func leakProducer(addr, session string, seed int64, record func(r, c, v uint64)) error {
	rng := rand.New(rand.NewSource(seed))
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	r, w := proto.NewReader(nc), proto.NewWriter(nc)

	send := func(kind byte, body []byte) error {
		if err := w.WriteFrame(kind, body); err != nil {
			return err
		}
		return w.Flush()
	}
	expectAck := func(seq uint64) error {
		f, err := r.Next()
		if err != nil {
			return err
		}
		if f.Kind != proto.KindAck {
			return fmt.Errorf("session %s: want ack, got kind %#x", session, f.Kind)
		}
		got, err := proto.ParseSeq(f.Body)
		if err != nil || got != seq {
			return fmt.Errorf("session %s: ack = %d, %v; want %d", session, got, err, seq)
		}
		return nil
	}
	hello := func() error {
		if err := send(proto.KindHello, proto.AppendHello(nil, session, 0)); err != nil {
			return err
		}
		f, err := r.Next()
		if err != nil {
			return err
		}
		if f.Kind != proto.KindWelcome {
			return fmt.Errorf("session %s: handshake reply kind %#x", session, f.Kind)
		}
		return nil
	}
	if err := hello(); err != nil {
		return err
	}

	const frames = 40
	var lastBody []byte
	for seq := uint64(1); seq <= frames; seq++ {
		n := 1 + rng.Intn(64)
		rows := make([]uint64, n)
		cols := make([]uint64, n)
		vals := make([]uint64, n)
		for i := 0; i < n; i++ {
			rows[i] = uint64(rng.Intn(64))
			cols[i] = uint64(rng.Intn(64))
			vals[i] = 1 + uint64(rng.Intn(100))
			record(rows[i], cols[i], vals[i])
		}
		body, err := proto.AppendInsert(nil, seq, rows, cols, vals)
		if err != nil {
			return err
		}
		if err := send(proto.KindInsert, body); err != nil {
			return err
		}
		if err := expectAck(seq); err != nil {
			return err
		}
		lastBody = body

		if seq == frames/2 {
			// Reconnect mid-stream and retransmit the frame that was
			// already acked: the server must ack it again without
			// re-applying (duplicate-drop path returns the batch too).
			nc.Close()
			if nc, err = net.Dial("tcp", addr); err != nil {
				return err
			}
			r, w = proto.NewReader(nc), proto.NewWriter(nc)
			if err := hello(); err != nil {
				return err
			}
			if err := send(proto.KindInsert, lastBody); err != nil {
				return err
			}
			if err := expectAck(seq); err != nil {
				return err
			}
		}
	}
	if err := send(proto.KindFlush, proto.AppendSeq(nil, frames+1)); err != nil {
		return err
	}
	return expectAck(frames + 1)
}

// TestBatchPoolNoLeaksUnderSessionChurn runs concurrent session producers
// with reconnect-and-retransmit churn plus the reader-side refusal paths
// (oversize batch, malformed body), then closes the server and verifies
// the batch pool drained clean: every Get matched by exactly one Put, no
// foreign or double returns, nothing outstanding. Matrix content is then
// checked against a host-side sum to prove poisoned (returned) batches
// were never read by the apply path.
func TestBatchPoolNoLeaksUnderSessionChurn(t *testing.T) {
	srv, _, addr := startServer(t, 64, Config{MaxBatch: 64})
	checked := checkedBatchPool(srv)

	var mu sync.Mutex
	want := make(map[[2]uint64]uint64)
	record := func(r, c, v uint64) {
		mu.Lock()
		want[[2]uint64{r, c}] += v
		mu.Unlock()
	}

	const producers = 4
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			errs <- leakProducer(addr, fmt.Sprintf("sess-%d", p), int64(p+1), record)
		}(p)
	}
	for p := 0; p < producers; p++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	// Refusal paths must return the batch too. Oversize: decoded, then
	// refused by admitInsert (connection survives). Malformed: decode
	// fails mid-parse and tears the connection.
	c := dialRaw(t, addr)
	c.handshake()
	big := make([]uint64, 65)
	body, err := proto.AppendInsert(nil, 1, big, big, big)
	if err != nil {
		t.Fatal(err)
	}
	c.send(proto.KindInsert, body)
	f := c.next()
	if f.Kind != proto.KindError {
		t.Fatalf("oversize reply kind %#x, want error", f.Kind)
	}
	c.send(proto.KindInsert, body[:3]) // truncated: malformed, fatal
	if f = c.next(); f.Kind != proto.KindError {
		t.Fatalf("malformed reply kind %#x, want error", f.Kind)
	}

	// Verify matrix content on a fresh connection before shutdown.
	q := dialRaw(t, addr)
	q.handshake()
	q.send(proto.KindFlush, proto.AppendSeq(nil, 1))
	q.expectAck(1)
	seq := uint64(2)
	for k, v := range want {
		q.query(proto.KindLookup, proto.Query{Seq: seq, Src: k[0], Dst: k[1]})
		f := q.next()
		if f.Kind != proto.KindLookupResp {
			t.Fatalf("lookup reply kind %#x", f.Kind)
		}
		_, found, got, err := proto.ParseLookupResp(f.Body)
		if err != nil || !found || got != v {
			t.Fatalf("lookup (%d,%d) = %d found=%v err=%v, want %d", k[0], k[1], got, found, err, v)
		}
		seq++
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := checked.Verify(); err != nil {
		t.Fatalf("batch pool protocol violated: %v", err)
	}
	gets, puts := checked.Stats()
	if gets == 0 || gets != puts {
		t.Fatalf("pool stats gets=%d puts=%d, want equal and nonzero", gets, puts)
	}
}
