package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"hhgb/internal/wal"
)

// roundTrip frames a body, reads it back, and returns the received frame.
func roundTrip(t *testing.T, kind byte, body []byte) Frame {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteFrame(kind, body); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	r := NewReader(&buf)
	f, err := r.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if f.Kind != kind {
		t.Fatalf("kind = %#x, want %#x", f.Kind, kind)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("second Next = %v, want io.EOF", err)
	}
	return f
}

// TestHelloRefusesEmptySession: every connection is an exactly-once
// session, so a Hello without a session id is malformed. The version still
// comes back, so a server answers a foreign-version Hello with a version
// refusal whatever its session field holds.
func TestHelloRefusesEmptySession(t *testing.T) {
	v, session, resume, err := ParseHello(roundTrip(t, KindHello, AppendHello(nil, "", 0)).Body)
	if !errors.Is(err, ErrMalformed) || v != Version || session != "" || resume != 0 {
		t.Fatalf("empty-session ParseHello = %d, %q, %d, %v; want version %d and ErrMalformed", v, session, resume, err, Version)
	}
}

func TestHelloWelcomeRoundTrip(t *testing.T) {
	f := roundTrip(t, KindHello, AppendHello(nil, "sess-1", 42))
	v, session, resume, err := ParseHello(f.Body)
	if err != nil || v != Version || session != "sess-1" || resume != 42 {
		t.Fatalf("ParseHello = %d, %q, %d, %v", v, session, resume, err)
	}
	// An over-long session id is refused before allocating.
	long := strings.Repeat("s", MaxSession+1)
	if _, _, _, err := ParseHello(AppendHello(nil, long, 0)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized session = %v, want ErrMalformed", err)
	}

	in := Welcome{Version: Version, Dim: 1 << 32, Shards: 8, Durable: true, LastSeq: 7, HighSeq: 9}
	f = roundTrip(t, KindWelcome, AppendWelcome(nil, in))
	out, err := ParseWelcome(f.Body)
	if err != nil || out != in {
		t.Fatalf("ParseWelcome = %+v, %v; want %+v", out, err, in)
	}
}

// TestParseHelloReturnsVersionOnShortHello pins the property the server's
// version refusal relies on: a v2-shaped Hello (magic + version only, no
// session fields) fails to parse, but the version still comes back so the
// server can answer ErrCodeVersion instead of a generic malformed error.
func TestParseHelloReturnsVersionOnShortHello(t *testing.T) {
	v2 := binary.BigEndian.AppendUint32(nil, Magic)
	v2 = binary.AppendUvarint(v2, 2)
	v, _, _, err := ParseHello(v2)
	if err == nil {
		t.Fatal("v2 hello parsed without error")
	}
	if v != 2 {
		t.Fatalf("version = %d, want 2 alongside the error", v)
	}
	// Bad magic yields no version at all.
	if v, _, _, err := ParseHello([]byte{0, 1, 2, 3, 4}); err == nil || v != 0 {
		t.Fatalf("bad magic = %d, %v; want 0 and an error", v, err)
	}
}

func TestInsertRoundTrip(t *testing.T) {
	rows := []uint64{1, 1 << 40, 3}
	cols := []uint64{2, 5, 1<<64 - 1}
	vals := []uint64{1, 7, 9}
	body, err := AppendInsert(nil, 42, rows, cols, vals)
	if err != nil {
		t.Fatalf("AppendInsert: %v", err)
	}
	f := roundTrip(t, KindInsert, body)
	seq, r, c, v, err := ParseInsert(f.Body)
	if err != nil {
		t.Fatalf("ParseInsert: %v", err)
	}
	if seq != 42 {
		t.Fatalf("seq = %d", seq)
	}
	for i := range rows {
		if r[i] != rows[i] || c[i] != cols[i] || v[i] != vals[i] {
			t.Fatalf("entry %d: (%d,%d,%d) != (%d,%d,%d)", i, r[i], c[i], v[i], rows[i], cols[i], vals[i])
		}
	}
}

// TestInsertRecordWidths round-trips Insert and InsertAt frames whose
// batch groups take every width (1, 2, 4 and 8 bytes, rows, cols and
// values each), an empty batch and a full MaxBatch frame, through the
// frame reader and both decoders. Each body ends in the WAL's batch record
// byte for byte: the wire and the log share one layout.
func TestInsertRecordWidths(t *testing.T) {
	type batch struct{ rows, cols, vals []uint64 }
	var cases []batch
	for _, top := range []uint64{0xff, 0xffff, 0xffffffff, 1 << 32, math.MaxUint64} {
		for g := range 3 {
			groups := [][]uint64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
			groups[g][1] = top
			cases = append(cases, batch{groups[0], groups[1], groups[2]})
		}
	}
	full := batch{make([]uint64, MaxBatch), make([]uint64, MaxBatch), make([]uint64, MaxBatch)}
	for i := range full.rows {
		full.rows[i], full.cols[i], full.vals[i] = uint64(i)<<16, math.MaxUint32-uint64(i), 1
	}
	cases = append(cases, batch{}, full)
	var b Batch // reused across every frame
	for _, tc := range cases {
		rec := wal.AppendBatchRecord(nil, tc.rows, tc.cols, tc.vals, identU64)
		insert, err := AppendInsert(nil, 300, tc.rows, tc.cols, tc.vals)
		if err != nil {
			t.Fatal(err)
		}
		insertAt, err := AppendInsertAt(nil, 300, 1e18, tc.rows, tc.cols, tc.vals)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(insert, rec) || len(insert) != 2+len(rec) || !bytes.HasSuffix(insertAt, rec) {
			t.Fatalf("n=%d: insert bodies do not end in the WAL record", len(tc.rows))
		}
		seq, err := ParseInsertBatch(roundTrip(t, KindInsert, insert).Body, &b)
		if err != nil || seq != 300 || !equalU64(b.Rows, tc.rows) || !equalU64(b.Cols, tc.cols) || !equalU64(b.Vals, tc.vals) {
			t.Fatalf("n=%d: Insert round trip: seq %d, err %v", len(tc.rows), seq, err)
		}
		seq, ts, err := ParseInsertAtBatch(roundTrip(t, KindInsertAt, insertAt).Body, &b)
		if err != nil || seq != 300 || ts != 1e18 || !equalU64(b.Rows, tc.rows) || !equalU64(b.Cols, tc.cols) || !equalU64(b.Vals, tc.vals) {
			t.Fatalf("n=%d: InsertAt round trip: seq %d, ts %d, err %v", len(tc.rows), seq, ts, err)
		}
	}
}

// TestInsertRecordRefusals: an Insert whose batch record is cut at any
// point, claims one entry more than it carries, has trailing bytes, or
// sets a reserved width bit is refused as malformed. (The record decoder
// refuses each before its scratch grows; internal/wal pins that.)
func TestInsertRecordRefusals(t *testing.T) {
	good, err := AppendInsert(nil, 1, []uint64{1, 1 << 40, 3}, []uint64{300, 5, 6}, []uint64{1, 2, math.MaxUint64})
	if err != nil {
		t.Fatal(err)
	}
	// good is seq ‖ count ‖ widths ‖ 3 × (8 + 2 + 8) bytes.
	var bad [][]byte
	for cut := 1; cut < len(good); cut++ {
		bad = append(bad, good[:cut])
	}
	bad = append(bad,
		append([]byte{1, 4}, good[2:]...), // count one above what the body holds
		append(slices.Clone(good), 0),
		append([]byte{1, 3, good[2] | 0x40}, good[3:]...),
		append([]byte{1, 3, good[2] | 0x80}, good[3:]...),
	)
	var b Batch
	for _, body := range bad {
		if _, err := ParseInsertBatch(body, &b); !errors.Is(err, ErrMalformed) {
			t.Fatalf("ParseInsertBatch(%x) = %v, want ErrMalformed", body, err)
		}
	}
}

func TestInsertOverMaxBatch(t *testing.T) {
	rows := make([]uint64, MaxBatch+1)
	if _, err := AppendInsert(nil, 1, rows, rows, rows); !errors.Is(err, ErrMalformed) {
		t.Fatalf("AppendInsert over cap = %v, want ErrMalformed", err)
	}
	// A hostile count larger than MaxBatch must error before allocating.
	body := binary.AppendUvarint(nil, 1)                   // seq
	body = binary.AppendUvarint(body, uint64(MaxBatch)*16) // count
	if _, _, _, _, err := ParseInsert(body); !errors.Is(err, ErrMalformed) {
		t.Fatalf("ParseInsert hostile count = %v, want ErrMalformed", err)
	}
}

// queryCases holds one row per query request body: the six query kinds
// standalone, and each of them again wrapped in an Explain. Values above
// 127 make every uvarint field multi-byte, so truncation tests cut inside
// fields as well as between them.
type queryCase struct {
	name string
	kind byte
	q    Query
}

var queryCases = func() []queryCase {
	ops := []queryCase{
		{"lookup", KindLookup, Query{Seq: 300, Op: KindLookup, Src: 400, Dst: 500}},
		{"topk", KindTopK, Query{Seq: 300, Op: KindTopK, Axis: AxisDestinations, K: 400}},
		{"summary", KindSummary, Query{Seq: 300, Op: KindSummary}},
		{"rangelookup", KindRangeLookup, Query{Seq: 300, Op: KindRangeLookup, Src: 400, Dst: 500, T0: 600, T1: 700}},
		{"rangetopk", KindRangeTopK, Query{Seq: 300, Op: KindRangeTopK, Axis: AxisSources, K: 400, T0: 600, T1: 700}},
		{"rangesummary", KindRangeSummary, Query{Seq: 300, Op: KindRangeSummary, T0: 600, T1: 700}},
	}
	cases := slices.Clone(ops)
	for _, op := range ops {
		cases = append(cases, queryCase{"explain-" + op.name, KindExplain, op.q})
	}
	return cases
}()

// mustQuery builds a query body that is known to be valid.
func mustQuery(t testing.TB, kind byte, q Query) []byte {
	t.Helper()
	body, err := AppendQuery(nil, kind, q)
	if err != nil {
		t.Fatalf("AppendQuery(%#x, %+v): %v", kind, q, err)
	}
	return body
}

func TestQueryBodiesRoundTrip(t *testing.T) {
	for _, tc := range queryCases {
		f := roundTrip(t, tc.kind, mustQuery(t, tc.kind, tc.q))
		got, err := ParseQuery(tc.kind, f.Body)
		if err != nil || got != tc.q {
			t.Fatalf("%s: ParseQuery = %+v, %v; want %+v", tc.name, got, err, tc.q)
		}
		if ranged := tc.q.T1 != 0; got.Ranged() != ranged {
			t.Fatalf("%s: Ranged() = %v, want %v", tc.name, got.Ranged(), ranged)
		}
	}
	// A Summary body is the seq alone — the bytes Flush and Ack carry.
	if got, want := mustQuery(t, KindSummary, Query{Seq: 12}), AppendSeq(nil, 12); !bytes.Equal(got, want) {
		t.Fatalf("summary body = %x, want the seq-only %x", got, want)
	}
	// An Explain body is the wrapped op's body with the op byte after the seq.
	plain := mustQuery(t, KindRangeLookup, Query{Seq: 1, Src: 2, Dst: 3, T0: 4, T1: 5})
	wrapped := mustQuery(t, KindExplain, Query{Seq: 1, Op: KindRangeLookup, Src: 2, Dst: 3, T0: 4, T1: 5})
	if want := append([]byte{plain[0], KindRangeLookup}, plain[1:]...); !bytes.Equal(wrapped, want) {
		t.Fatalf("explain body = %x, want %x", wrapped, want)
	}
	// Non-query kinds, non-query wrapped ops and unknown axes are refused
	// on both sides.
	for _, bad := range []struct {
		kind byte
		q    Query
	}{
		{KindFlush, Query{Seq: 1}},
		{KindExplain, Query{Seq: 1, Op: KindExplain}},
		{KindExplain, Query{Seq: 1, Op: KindInsert}},
		{KindTopK, Query{Seq: 1, Axis: AxisDestinations + 1}},
		{KindExplain, Query{Seq: 1, Op: KindRangeTopK, Axis: 7}},
	} {
		if _, err := AppendQuery(nil, bad.kind, bad.q); !errors.Is(err, ErrMalformed) {
			t.Fatalf("AppendQuery(%#x, %+v) = %v, want ErrMalformed", bad.kind, bad.q, err)
		}
	}
	for _, bad := range []struct {
		kind byte
		body []byte
	}{
		{KindFlush, []byte{1}},
		{KindExplain, []byte{1, KindExplain}},
		{KindExplain, []byte{1, KindInsert}},
		{KindTopK, []byte{1, AxisDestinations + 1, 5}},
		{KindExplain, []byte{1, KindTopK, 7, 5}},
	} {
		if _, err := ParseQuery(bad.kind, bad.body); !errors.Is(err, ErrMalformed) {
			t.Fatalf("ParseQuery(%#x, %x) = %v, want ErrMalformed", bad.kind, bad.body, err)
		}
	}
	{
		f := roundTrip(t, KindLookupResp, AppendLookupResp(nil, 7, true, 99))
		seq, found, v, err := ParseLookupResp(f.Body)
		if err != nil || seq != 7 || !found || v != 99 {
			t.Fatalf("ParseLookupResp = %d,%v,%d,%v", seq, found, v, err)
		}
	}
	{
		in := []Ranked{{ID: 3, Value: 100}, {ID: 9, Value: 50}}
		f := roundTrip(t, KindTopKResp, AppendTopKResp(nil, 8, in))
		seq, top, err := ParseTopKResp(f.Body)
		if err != nil || seq != 8 || len(top) != 2 || top[0] != in[0] || top[1] != in[1] {
			t.Fatalf("ParseTopKResp = %d,%v,%v", seq, top, err)
		}
	}
	{
		in := Summary{Entries: 1, Sources: 2, Destinations: 3, TotalPackets: 4, MaxOutDegree: 5, MaxInDegree: 6}
		f := roundTrip(t, KindSummaryResp, AppendSummaryResp(nil, 9, in))
		seq, out, err := ParseSummaryResp(f.Body)
		if err != nil || seq != 9 || out != in {
			t.Fatalf("ParseSummaryResp = %d,%+v,%v", seq, out, err)
		}
	}
	{
		f := roundTrip(t, KindError, AppendError(nil, 4, ErrCodeOverload, "busy"))
		seq, code, msg, err := ParseError(f.Body)
		if err != nil || seq != 4 || code != ErrCodeOverload || msg != "busy" {
			t.Fatalf("ParseError = %d,%d,%q,%v", seq, code, msg, err)
		}
	}
	{
		f := roundTrip(t, KindFlush, AppendSeq(nil, 12))
		seq, err := ParseSeq(f.Body)
		if err != nil || seq != 12 {
			t.Fatalf("ParseSeq = %d,%v", seq, err)
		}
	}
}

func TestTemporalBodiesRoundTrip(t *testing.T) {
	{
		rows := []uint64{1, 1 << 40}
		cols := []uint64{2, 5}
		vals := []uint64{1, 7}
		body, err := AppendInsertAt(nil, 42, 1_700_000_000_000_000_000, rows, cols, vals)
		if err != nil {
			t.Fatalf("AppendInsertAt: %v", err)
		}
		f := roundTrip(t, KindInsertAt, body)
		seq, ts, r, c, v, err := ParseInsertAt(f.Body)
		if err != nil || seq != 42 || ts != 1_700_000_000_000_000_000 {
			t.Fatalf("ParseInsertAt = %d,%d,%v", seq, ts, err)
		}
		for i := range rows {
			if r[i] != rows[i] || c[i] != cols[i] || v[i] != vals[i] {
				t.Fatalf("entry %d mismatch", i)
			}
		}
	}
	{
		rows := make([]uint64, MaxBatch+1)
		if _, err := AppendInsertAt(nil, 1, 0, rows, rows, rows); !errors.Is(err, ErrMalformed) {
			t.Fatalf("AppendInsertAt over cap = %v, want ErrMalformed", err)
		}
		body := binary.AppendUvarint(nil, 1)                   // seq
		body = binary.AppendUvarint(body, 9)                   // ts
		body = binary.AppendUvarint(body, uint64(MaxBatch)*16) // count
		if _, _, _, _, _, err := ParseInsertAt(body); !errors.Is(err, ErrMalformed) {
			t.Fatalf("ParseInsertAt hostile count = %v, want ErrMalformed", err)
		}
	}
	{
		f := roundTrip(t, KindSubscribe, AppendSubscribe(nil, 5, SubscribeAllLevels))
		seq, level, err := ParseSubscribe(f.Body)
		if err != nil || seq != 5 || level != SubscribeAllLevels {
			t.Fatalf("ParseSubscribe = %d,%d,%v", seq, level, err)
		}
	}
	{
		in := WindowSummary{Sub: 5, Level: 1, Start: 100, End: 200, Entries: 3, Sources: 2, Destinations: 3, Packets: 44}
		f := roundTrip(t, KindWindowSummary, AppendWindowSummary(nil, in))
		out, err := ParseWindowSummary(f.Body)
		if err != nil || out != in {
			t.Fatalf("ParseWindowSummary = %+v, %v; want %+v", out, err, in)
		}
	}
	// The Welcome window field survives the round trip for a windowed
	// server.
	in := Welcome{Version: Version, Dim: 1 << 24, Shards: 2, Window: 1_000_000_000}
	out, err := ParseWelcome(roundTrip(t, KindWelcome, AppendWelcome(nil, in)).Body)
	if err != nil || out != in {
		t.Fatalf("windowed Welcome = %+v, %v; want %+v", out, err, in)
	}
}

func TestReaderTornAndHostileFrames(t *testing.T) {
	// Clean EOF on an empty stream.
	if _, err := NewReader(strings.NewReader("")).Next(); err != io.EOF {
		t.Fatalf("empty stream = %v, want io.EOF", err)
	}
	// A frame cut mid-length, mid-body.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteFrame(KindSummary, AppendSeq(nil, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		if _, err := NewReader(bytes.NewReader(whole[:cut])).Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	// Oversized length prefix: error, not an allocation.
	huge := binary.AppendUvarint(nil, MaxFrame+1)
	if _, err := NewReader(bytes.NewReader(huge)).Next(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized frame = %v, want ErrMalformed", err)
	}
	// Zero-length frame: malformed (no kind byte).
	if _, err := NewReader(bytes.NewReader([]byte{0})).Next(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("zero-length frame = %v, want ErrMalformed", err)
	}
	// Non-terminating varint.
	bad := bytes.Repeat([]byte{0xff}, 11)
	if _, err := NewReader(bytes.NewReader(bad)).Next(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("overlong varint = %v, want ErrMalformed", err)
	}
}

func TestWriterRefusesOversizedFrame(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.WriteFrame(KindInsert, make([]byte, MaxFrame)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized WriteFrame = %v, want ErrMalformed", err)
	}
}

// TestParsersRejectTruncation walks every parser over every strict prefix
// of a valid body: each must error (never panic) and never succeed on a
// truncated body with trailing data absent.
func TestParsersRejectTruncation(t *testing.T) {
	// Multi-byte groups (8-byte rows, 2-byte cols, 4-byte values) put
	// cuts inside the batch record's fixed-width words as well as between
	// them.
	insert, err := AppendInsert(nil, 3, []uint64{1, 1 << 40}, []uint64{3, 300}, []uint64{5, 70000})
	if err != nil {
		t.Fatal(err)
	}
	insertAt, err := AppendInsertAt(nil, 3, 300, []uint64{1, 1 << 40}, []uint64{3, 300}, []uint64{5, 70000})
	if err != nil {
		t.Fatal(err)
	}
	type parserCase struct {
		name  string
		body  []byte
		parse func([]byte) error
	}
	cases := []parserCase{
		{"hello", AppendHello(nil, "sess", 300), func(b []byte) error { _, _, _, err := ParseHello(b); return err }},
		{"welcome", AppendWelcome(nil, Welcome{Version: 1, Dim: 10, Shards: 2}), func(b []byte) error { _, err := ParseWelcome(b); return err }},
		{"insert", insert, func(b []byte) error { _, _, _, _, err := ParseInsert(b); return err }},
		{"seq", AppendSeq(nil, 300), func(b []byte) error { _, err := ParseSeq(b); return err }},
		{"lookupresp", AppendLookupResp(nil, 1, true, 300), func(b []byte) error { _, _, _, err := ParseLookupResp(b); return err }},
		{"topkresp", AppendTopKResp(nil, 1, []Ranked{{300, 400}}), func(b []byte) error { _, _, err := ParseTopKResp(b); return err }},
		{"summaryresp", AppendSummaryResp(nil, 1, Summary{Entries: 300}), func(b []byte) error { _, _, err := ParseSummaryResp(b); return err }},
		{"error", AppendError(nil, 1, ErrCodeInternal, "boom"), func(b []byte) error { _, _, _, err := ParseError(b); return err }},
		{"insertat", insertAt, func(b []byte) error { _, _, _, _, _, err := ParseInsertAt(b); return err }},
		{"subscribe", AppendSubscribe(nil, 300, 0), func(b []byte) error { _, _, err := ParseSubscribe(b); return err }},
		{"windowsummary", AppendWindowSummary(nil, WindowSummary{Sub: 300, Start: 400, End: 500, Packets: 600}), func(b []byte) error { _, err := ParseWindowSummary(b); return err }},
	}
	for _, qc := range queryCases {
		kind := qc.kind
		cases = append(cases, parserCase{qc.name, mustQuery(t, kind, qc.q),
			func(b []byte) error { _, err := ParseQuery(kind, b); return err }})
	}
	for _, tc := range cases {
		if err := tc.parse(tc.body); err != nil {
			t.Fatalf("%s: whole body failed: %v", tc.name, err)
		}
		for cut := 0; cut < len(tc.body); cut++ {
			if err := tc.parse(tc.body[:cut]); err == nil {
				t.Fatalf("%s: prefix of %d/%d bytes parsed without error", tc.name, cut, len(tc.body))
			}
		}
		// Trailing garbage must be rejected too.
		if err := tc.parse(append(append([]byte(nil), tc.body...), 0)); err == nil {
			t.Fatalf("%s: trailing byte parsed without error", tc.name)
		}
	}
}
