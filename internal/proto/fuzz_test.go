package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"hhgb/internal/pool"
	"hhgb/internal/wal"
)

// The fuzz targets assert the protocol-robustness contract: arbitrary
// bytes fed to the frame reader and every body parser must produce an
// error or a value — never a panic — and must never allocate more than the
// input could justify (the parsers bound counts by the remaining bytes
// before allocating; an out-of-memory abort here is a finding). CI runs
// each target for a short fixed time on every push.

// FuzzReaderNext streams arbitrary bytes through the frame reader until it
// errors or the stream is exhausted.
func FuzzReaderNext(f *testing.F) {
	var seed bytes.Buffer
	w := NewWriter(&seed)
	body, _ := AppendInsert(nil, 1, []uint64{1, 2}, []uint64{3, 4}, []uint64{5, 6})
	_ = w.WriteFrame(KindInsert, body)
	_ = w.WriteFrame(KindFlush, AppendSeq(nil, 2))
	_ = w.Flush()
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for {
			fr, err := r.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrMalformed) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			if len(fr.Body) > MaxFrame {
				t.Fatalf("frame body %d exceeds MaxFrame", len(fr.Body))
			}
		}
	})
}

// FuzzParseInsert feeds arbitrary bodies to the insert parser — the one
// carrying attacker-sized batches.
func FuzzParseInsert(f *testing.F) {
	good, _ := AppendInsert(nil, 9, []uint64{1, 1 << 60}, []uint64{2, 3}, []uint64{1, 1})
	f.Add(good)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		seq, rows, cols, vals, err := ParseInsert(body)
		if err != nil {
			return
		}
		if len(rows) != len(cols) || len(rows) != len(vals) {
			t.Fatalf("uneven batch: %d/%d/%d", len(rows), len(cols), len(vals))
		}
		if len(rows) > MaxBatch {
			t.Fatalf("batch %d exceeds MaxBatch", len(rows))
		}
		_ = seq
	})
}

// FuzzParseBodies drives every remaining parser over the same corpus; all
// must be total (error, never panic).
func FuzzParseBodies(f *testing.F) {
	f.Add(AppendWelcome(nil, Welcome{Version: 1, Dim: 1 << 32, Shards: 4, Durable: true, Window: 1e9}))
	f.Add(AppendTopKResp(nil, 5, []Ranked{{1, 2}, {3, 4}}))
	f.Add(AppendSummaryResp(nil, 6, Summary{Entries: 10}))
	f.Add(AppendError(nil, 7, ErrCodeOverload, "overloaded"))
	f.Add(AppendHello(nil, "sess-fuzz", 42))
	for _, qc := range queryCases {
		f.Add(mustQuery(f, qc.kind, qc.q))
	}
	f.Add(AppendSubscribe(nil, 9, SubscribeAllLevels))
	f.Add(AppendWindowSummary(nil, WindowSummary{Sub: 9, Start: 1e9, End: 2e9, Entries: 5, Packets: 50}))
	f.Add(AppendExplainResp(nil, 11, Explain{Op: KindRangeSummary, TotalNanos: 5e6,
		Legs:      []ExplainLeg{{Start: 1e9, End: 2e9, Shards: 2, DurNanos: 1e6}},
		Uncovered: []ExplainSpan{{Start: 2e9, End: 3e9}}}))
	f.Fuzz(func(t *testing.T, body []byte) {
		_, _, _, _ = ParseHello(body)
		_, _ = ParseWelcome(body)
		_, _ = ParseSeq(body)
		_, _, _, _ = ParseLookupResp(body)
		if _, top, err := ParseTopKResp(body); err == nil && len(top) > len(body) {
			t.Fatalf("top-k result larger than its encoding")
		}
		_, _, _ = ParseSummaryResp(body)
		_, _, _, _ = ParseError(body)
		_, _, _ = ParseSubscribe(body)
		_, _ = ParseWindowSummary(body)
		for _, kind := range []byte{KindLookup, KindTopK, KindSummary, KindRangeLookup, KindRangeTopK, KindRangeSummary, KindExplain} {
			q, err := ParseQuery(kind, body)
			if err != nil {
				continue
			}
			// What parses re-encodes and parses back to the same request.
			enc, err := AppendQuery(nil, kind, q)
			if err != nil {
				t.Fatalf("kind %#x: re-encode of parsed %+v: %v", kind, q, err)
			}
			if q2, err := ParseQuery(kind, enc); err != nil || q2 != q {
				t.Fatalf("kind %#x: reparse = %+v, %v; want %+v", kind, q2, err, q)
			}
		}
		if _, e, err := ParseExplainResp(body); err == nil && len(e.Legs)+len(e.Uncovered) > len(body) {
			t.Fatalf("explain trailer larger than its encoding")
		}
	})
}

// FuzzParseHello targets the handshake parser on its own — the one parser
// that must stay partially total: when the magic and version decode, the
// version must come back even if the session fields are torn, so a server
// can tell an old client from a hostile one; and no Hello parses without a
// session. Seeds include a truncated session-bearing Hello (the wire shape
// of a Hello cut mid-session) and an empty-session one, which is refused.
func FuzzParseHello(f *testing.F) {
	good := AppendHello(nil, "sess-fuzz", 1<<40)
	f.Add(good)
	f.Add(good[:6]) // cut inside the session length/body
	f.Add(AppendHello(nil, "", 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		v, session, resume, err := ParseHello(body)
		if err != nil {
			if session != "" || resume != 0 {
				t.Fatalf("error path leaked session %q / resume %d", session, resume)
			}
			if v != 0 && len(body) < 5 {
				t.Fatalf("version %d from a %d-byte body", v, len(body))
			}
			return
		}
		if session == "" || len(session) > MaxSession {
			t.Fatalf("accepted a session of %d bytes (want 1..%d)", len(session), MaxSession)
		}
		_ = v
	})
}

// FuzzParseInsertAt covers the timestamped insert parser — like
// FuzzParseInsert, the body carrying attacker-sized batches.
func FuzzParseInsertAt(f *testing.F) {
	good, _ := AppendInsertAt(nil, 9, 1e9, []uint64{1, 1 << 60}, []uint64{2, 3}, []uint64{1, 1})
	f.Add(good)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		_, _, rows, cols, vals, err := ParseInsertAt(body)
		if err != nil {
			return
		}
		if len(rows) != len(cols) || len(rows) != len(vals) {
			t.Fatalf("uneven batch: %d/%d/%d", len(rows), len(cols), len(vals))
		}
		if len(rows) > MaxBatch {
			t.Fatalf("batch %d exceeds MaxBatch", len(rows))
		}
	})
}

// fuzzBatchPool is the pooled scratch under test in
// FuzzBatchRecordPooledRoundtrip. It is package-level on purpose: scratch
// survives from one fuzz execution to the next, and the poison scrambles
// every returned batch — so if the pooled decode ever reads retained
// memory instead of the input bytes, the scrambled residue of a previous
// input diverges from the allocating reference and the fuzzer reports it.
var fuzzBatchPool = pool.NewChecked(4,
	func() *Batch { return new(Batch) },
	func(b *Batch) {
		for i := range b.Rows {
			b.Rows[i] = 0xA5A5A5A5A5A5A5A5
			b.Cols[i] = 0x5A5A5A5A5A5A5A5A
			b.Vals[i] = 0xDEADDEADDEADDEAD
		}
	})

// FuzzBatchRecordPooledRoundtrip drives the pooled batch-record path over
// arbitrary session-framed insert bodies (seq ‖ record): pooled decode
// must agree exactly with the allocating wal-level reference, a
// successful decode must re-encode to bytes that decode to the same batch
// and re-encode identically (a one-step fixed point — arbitrary inputs
// may use a non-minimal count varint or groups wider than their words
// need, so only the re-encoding is canonical), and
// the leak-checked pool must stay balanced across every execution.
func FuzzBatchRecordPooledRoundtrip(f *testing.F) {
	good, _ := AppendInsert(nil, 9, []uint64{1, 1 << 60}, []uint64{2, 3}, []uint64{5, 6})
	f.Add(good)
	empty, _ := AppendInsert(nil, 1, nil, nil, nil)
	f.Add(empty)
	f.Add([]byte{})
	f.Add(good[:4])
	f.Fuzz(func(t *testing.T, body []byte) {
		b := fuzzBatchPool.Get()
		seq, err := ParseInsertBatch(body, b)
		if err == nil {
			// Cross-check against the allocating wal-level decoder on the
			// record past the seq header: same values, no dependence on
			// the poisoned scratch the pooled path decoded into.
			_, k := binary.Uvarint(body)
			refRows, refCols, refVals, werr := wal.DecodeBatchRecord(body[k:], identU64)
			if werr != nil {
				t.Fatalf("pooled parse ok, wal reference failed: %v", werr)
			}
			if !equalU64(b.Rows, refRows) || !equalU64(b.Cols, refCols) || !equalU64(b.Vals, refVals) {
				t.Fatalf("pooled decode diverges from wal reference (n=%d)", b.Len())
			}

			enc, eerr := AppendInsert(nil, seq, b.Rows, b.Cols, b.Vals)
			if eerr != nil {
				t.Fatalf("re-encode of a decoded batch failed: %v", eerr)
			}
			b2 := fuzzBatchPool.Get()
			seq2, perr := ParseInsertBatch(enc, b2)
			if perr != nil || seq2 != seq {
				t.Fatalf("re-encoded body failed to parse: seq=%d err=%v", seq2, perr)
			}
			if !equalU64(b.Rows, b2.Rows) || !equalU64(b.Cols, b2.Cols) || !equalU64(b.Vals, b2.Vals) {
				t.Fatalf("decode(encode(batch)) != batch")
			}
			enc2, eerr := AppendInsert(nil, seq2, b2.Rows, b2.Cols, b2.Vals)
			if eerr != nil || !bytes.Equal(enc, enc2) {
				t.Fatalf("re-encode is not a fixed point (err %v)", eerr)
			}
			fuzzBatchPool.Put(b2)
		}
		fuzzBatchPool.Put(b)
		if verr := fuzzBatchPool.Verify(); verr != nil {
			t.Fatalf("pool protocol violated: %v", verr)
		}
	})
}
