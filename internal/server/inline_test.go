package server

import (
	"testing"
	"time"

	"hhgb/internal/proto"
)

// awaitIdle waits until no connection of s has a request queued or
// executing — the state in which the reader serves a query itself.
func awaitIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var busy int64
		s.mu.Lock()
		for c := range s.conns {
			busy += c.busy.Load()
		}
		s.mu.Unlock()
		if busy == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("connections still busy (%d requests) after 5s", busy)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueryAfterPipelinedInserts pipelines insert frames and then a lookup
// without reading a single ack, on a flat and on a windowed server. Every
// ack must arrive before the lookup's response, and the lookup must count
// every pipelined entry: a query behind queued work takes the applier's
// queue. Once the connection is idle, a lookup is served by the reader
// itself and must still see everything.
func TestQueryAfterPipelinedInserts(t *testing.T) {
	const frames = 64
	ts := uint64(winBase.UnixNano())
	for _, tc := range []struct {
		name     string
		windowed bool
	}{{"flat", false}, {"windowed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var srv *Server
			var addr string
			if tc.windowed {
				srv, _, addr = startWindowedServer(t, Config{})
			} else {
				srv, _, addr = startServer(t, 1<<20, Config{})
			}
			c := dialRaw(t, addr)
			c.handshake()
			insert := func(seq uint64) {
				var body []byte
				var err error
				kind := proto.KindInsert
				if tc.windowed {
					kind = proto.KindInsertAt
					body, err = proto.AppendInsertAt(nil, seq, ts, []uint64{7}, []uint64{8}, []uint64{1})
				} else {
					body, err = proto.AppendInsert(nil, seq, []uint64{7}, []uint64{8}, []uint64{1})
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := c.w.WriteFrame(kind, body); err != nil {
					t.Fatal(err)
				}
			}
			lookup := func(seq uint64) {
				kind, q := proto.KindLookup, proto.Query{Seq: seq, Src: 7, Dst: 8}
				if tc.windowed {
					kind, q.T0, q.T1 = proto.KindRangeLookup, ts, ts+uint64(time.Second)
				}
				c.query(kind, q)
			}
			expectLookup := func(seq, want uint64) {
				t.Helper()
				f := c.next()
				if f.Kind != proto.KindLookupResp {
					t.Fatalf("seq %d: want the lookup response, got kind %#x", seq, f.Kind)
				}
				got, found, v, err := proto.ParseLookupResp(f.Body)
				if err != nil || got != seq || !found || v != want {
					t.Fatalf("lookup = seq %d, found %v, v %d, err %v; want seq %d, v %d", got, found, v, err, seq, want)
				}
			}

			seq := uint64(1)
			for round := uint64(1); round <= 2; round++ {
				first := seq
				for ; seq < first+frames; seq++ {
					insert(seq)
				}
				lookup(seq) // flushes the pipelined inserts with it
				for s := first; s < seq; s++ {
					c.expectAck(s)
				}
				expectLookup(seq, round*frames)
				seq++

				awaitIdle(t, srv)
				lookup(seq)
				expectLookup(seq, round*frames)
				seq++
			}
		})
	}
}
