// Package proto defines the binary wire protocol between the network
// ingest server (internal/server) and its clients (hhgbclient): a
// length-prefixed frame stream over any reliable byte transport (TCP).
//
// # Framing
//
// Every message is one self-delimiting frame:
//
//	frame := uvarint(len) ‖ kind(1 byte) ‖ body(len-1 bytes)
//
// len counts the kind byte plus the body and is capped at MaxFrame, so a
// torn or hostile length prefix is an error, never an allocation request.
// There is no per-frame checksum: the transport (TCP) already provides
// integrity, and the durable server re-frames batches into its CRC32-framed
// write-ahead log (internal/wal) before acknowledging a flush.
//
// # Session
//
// A connection opens with the client's Hello — magic, protocol version,
// a client-chosen session identifier, and the resume seq (the highest seq
// the client believes acknowledged; informational) — and the server's
// Welcome: negotiated version, matrix dimension, shard count, durability
// flag, window duration, and two session frontiers — LastSeq, the server's
// highest durably-applied insert seq for that session (under-reported;
// governs retransmit-ring trimming), and HighSeq, the highest seq its
// dedup state has ever recorded (over-reported; governs minting — a
// resuming client without its ring sends new frames strictly above it).
// The session identifier, not the TCP connection, is the exactly-once
// dedup scope: a client that reconnects under the same session may
// retransmit any insert frame above LastSeq, and the server acks
// duplicates without re-applying them. Every connection is a session: a
// Hello with an empty session identifier is malformed. Then the client
// pipelines requests, each carrying a client-assigned sequence number
// (starting at 1, strictly increasing within the session across
// reconnects; 0 is reserved for connection-level errors), and the server
// responds per request:
//
//	Insert      → Ack          batch accepted into the ingest pipeline
//	InsertAt    → Ack          ditto, timestamped (windowed servers)
//	Flush       → Ack          all prior accepted batches applied (+fsynced)
//	Checkpoint  → Ack          ditto, plus snapshot compaction
//	Lookup      → LookupResp
//	TopK        → TopKResp
//	Summary     → SummaryResp
//	RangeLookup → LookupResp   over an event-time range (windowed servers)
//	RangeTopK   → TopKResp     over an event-time range
//	RangeSummary→ SummaryResp  over an event-time range
//	Subscribe   → Ack, then a stream of WindowSummary frames
//	Explain     → ExplainResp  runs a wrapped query op, returns its trailer
//	Goodbye     → Ack          server drained this connection's buffers
//	(any)       → Error        per-request failure (seq echoes the request)
//
// Insert and InsertAt bodies end in the WAL batch record
// (wal.AppendBatchRecord), the same layout a durable shard worker logs:
//
//	record := uvarint(n) ‖ widths ‖ n × row ‖ n × col ‖ n × value
//
// Each group is fixed-width little-endian at the smallest of 1, 2, 4 or 8
// bytes that holds all of its words; the widths byte carries the three
// log₂ widths (rows in bits 0–1, cols 2–3, values 4–5, bits 6–7 zero).
// InsertAt prefixes the batch with an event timestamp (unix nanoseconds);
// all of a frame's entries share it, so a windowed server routes the
// whole frame into one window.
//
// The six query frames and Explain share one request, Query, and one
// codec pair, AppendQuery/ParseQuery; which fields a body carries after
// its seq is a function of the op alone (queryFields):
//
//	Lookup  src dst        TopK  axis k        Summary  —
//	Range*  the flat op's fields, then t0 t1
//	Explain the wrapped op's kind byte, then that op's fields
//
// Responses to a connection's requests arrive in request order, with two
// exceptions: an overloaded server rejects an Insert from its reader loop
// (Error code ErrCodeOverload) while earlier requests may still be queued,
// so that Error can overtake their responses; and WindowSummary frames —
// pushed by the server whenever a window seals, after the Subscribe ack —
// interleave arbitrarily with responses, tagged with the Subscribe's seq.
// Clients must match responses to requests by seq, not by arrival order.
package proto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"hhgb/internal/wal"
)

// Magic opens every Hello body: "HGB1" big-endian.
const Magic uint32 = 0x48474231

// Version is the protocol version this package speaks. A server refuses a
// Hello with a different version (ErrCodeVersion) rather than guessing.
// Version 2 added the temporal frames (InsertAt, Range*, Subscribe,
// WindowSummary) and the Welcome window-duration field. Version 3 made
// ingest exactly-once: Hello carries a session identifier and resume seq,
// Welcome answers with the session's durable high-water mark (LastSeq),
// and Insert/InsertAt seqs become the per-session dedup key. Version 4
// replaced the batch record's uvarint fields with fixed-width groups.
const Version = 4

// MaxSession caps the Hello session identifier's length, matching the
// WAL-side cap (wal.MaxSessionID) so every session the server accepts can
// be journaled.
const MaxSession = wal.MaxSessionID

// MaxFrame caps a frame's length prefix (kind + body). Larger prefixes are
// malformed: the reader errors instead of allocating.
const MaxFrame = 1 << 24

// MaxBatch caps the entry count of one Insert frame, enforced on both
// sides: AppendInsert refuses to build a larger frame, and
// ParseInsertBatch treats a larger count as malformed before allocating.
const MaxBatch = 1 << 16

// ErrMalformed is returned (wrapped; test with errors.Is) for any frame or
// body that does not parse: torn length, oversized frame, truncated or
// trailing body bytes, bad magic.
var ErrMalformed = errors.New("proto: malformed frame")

// Frame kinds. Client-to-server kinds have the high bit clear,
// server-to-client kinds have it set.
const (
	KindHello        byte = 0x01
	KindInsert       byte = 0x02
	KindFlush        byte = 0x03
	KindCheckpoint   byte = 0x04
	KindLookup       byte = 0x05
	KindTopK         byte = 0x06
	KindSummary      byte = 0x07
	KindGoodbye      byte = 0x08
	KindInsertAt     byte = 0x09
	KindRangeLookup  byte = 0x0a
	KindRangeTopK    byte = 0x0b
	KindRangeSummary byte = 0x0c
	KindSubscribe    byte = 0x0d
	KindExplain      byte = 0x0e

	KindWelcome       byte = 0x81
	KindAck           byte = 0x82
	KindLookupResp    byte = 0x83
	KindTopKResp      byte = 0x84
	KindSummaryResp   byte = 0x85
	KindError         byte = 0x86
	KindWindowSummary byte = 0x87
	KindExplainResp   byte = 0x88
)

// Error codes carried by Error frames.
const (
	// ErrCodeVersion: the Hello's magic or version was not acceptable.
	// Connection-level (seq 0); the server closes after sending it.
	ErrCodeVersion uint64 = 1
	// ErrCodeMalformed: a frame or body failed to parse. Connection-level
	// (seq 0 when the request's seq could not be read); the server closes.
	ErrCodeMalformed uint64 = 2
	// ErrCodeOverload: the server's in-flight entry budget is exhausted;
	// the Insert was dropped (not applied). Retryable after backoff.
	ErrCodeOverload uint64 = 3
	// ErrCodeTooLarge: the Insert exceeds the server's batch cap.
	ErrCodeTooLarge uint64 = 4
	// ErrCodeRejected: the batch failed validation (out-of-bounds index,
	// mismatched slice lengths); nothing was applied.
	ErrCodeRejected uint64 = 5
	// ErrCodeClosed: the matrix is closed or the server is draining.
	ErrCodeClosed uint64 = 6
	// ErrCodeInternal: an ingest or query error on the server; the message
	// carries detail.
	ErrCodeInternal uint64 = 7
	// ErrCodeEvicted: the server disconnected this subscriber for falling
	// too far behind the seal summary stream (its push queue stayed full
	// past the server's patience). The connection closes after this frame;
	// the client may reconnect and re-subscribe, accepting the gap.
	ErrCodeEvicted uint64 = 8
)

// TopK axes.
const (
	AxisSources      byte = 0
	AxisDestinations byte = 1
)

// Frame is one decoded frame: its kind and its body bytes. The body slice
// is only valid until the reader's next call.
type Frame struct {
	Kind byte
	Body []byte
}

// Reader decodes a frame stream. It is not safe for concurrent use.
type Reader struct {
	br    *bufio.Reader
	buf   []byte
	bytes int64
}

// NewReader returns a frame reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Bytes returns the total framed bytes consumed.
func (r *Reader) Bytes() int64 { return r.bytes }

// Next reads one frame. io.EOF means the stream ended cleanly on a frame
// boundary; a frame cut mid-way returns io.ErrUnexpectedEOF; a length
// prefix beyond MaxFrame (or of zero length — every frame has a kind)
// returns an ErrMalformed-wrapped error. The returned body aliases an
// internal buffer reused by the next call.
func (r *Reader) Next() (Frame, error) {
	length, n, err := wal.ReadUvarint(r.br)
	if err != nil {
		if n == 0 && errors.Is(err, io.EOF) {
			return Frame{}, io.EOF // clean end: no bytes of a next frame
		}
		if errors.Is(err, io.EOF) {
			return Frame{}, io.ErrUnexpectedEOF
		}
		if errors.Is(err, wal.ErrVarint) {
			return Frame{}, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		return Frame{}, err
	}
	if length == 0 {
		return Frame{}, fmt.Errorf("%w: zero-length frame", ErrMalformed)
	}
	if length > MaxFrame {
		return Frame{}, fmt.Errorf("%w: frame length %d exceeds %d", ErrMalformed, length, MaxFrame)
	}
	if uint64(cap(r.buf)) < length {
		r.buf = make([]byte, length)
	}
	buf := r.buf[:length]
	if _, err := io.ReadFull(r.br, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Frame{}, io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	r.bytes += int64(n) + int64(length)
	return Frame{Kind: buf[0], Body: buf[1:]}, nil
}

// Writer encodes frames onto an underlying writer, buffered: frames are
// sent at Flush (or when the buffer fills). It is not safe for concurrent
// use.
type Writer struct {
	bw    *bufio.Writer
	buf   []byte
	bytes int64
}

// NewWriter returns a frame writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Bytes returns the total framed bytes produced.
func (w *Writer) Bytes() int64 { return w.bytes }

// WriteFrame frames kind+body and buffers it.
func (w *Writer) WriteFrame(kind byte, body []byte) error {
	length := uint64(1 + len(body))
	if length > MaxFrame {
		return fmt.Errorf("%w: frame length %d exceeds %d", ErrMalformed, length, MaxFrame)
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], length)
	if _, err := w.bw.Write(hdr[:n]); err != nil {
		return err
	}
	if err := w.bw.WriteByte(kind); err != nil {
		return err
	}
	if _, err := w.bw.Write(body); err != nil {
		return err
	}
	w.bytes += int64(n) + int64(length)
	return nil
}

// Flush sends every buffered frame to the transport.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Body builders and parsers. Builders append to a caller-owned buffer
// (pass buf[:0] to reuse); parsers reject truncated or trailing bytes with
// ErrMalformed-wrapped errors and never over-allocate.

// bodyReader parses uvarint fields off a body slice.
type bodyReader struct {
	b   []byte
	off int
}

func (r *bodyReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated field", ErrMalformed)
	}
	r.off += n
	return v, nil
}

func (r *bodyReader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("%w: truncated field", ErrMalformed)
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}

func (r *bodyReader) done() error {
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.b)-r.off)
	}
	return nil
}

// AppendHello builds a Hello body: magic (4 bytes big-endian), version,
// session identifier (uvarint length + bytes; must not be empty),
// and the client's resume seq — the highest seq it believes acknowledged,
// 0 on a fresh session (informational: the server's own table decides).
func AppendHello(buf []byte, session string, resumeSeq uint64) []byte {
	buf = binary.BigEndian.AppendUint32(buf, Magic)
	buf = binary.AppendUvarint(buf, Version)
	buf = binary.AppendUvarint(buf, uint64(len(session)))
	buf = append(buf, session...)
	return binary.AppendUvarint(buf, resumeSeq)
}

// ParseHello returns the client's protocol version, session identifier,
// and resume seq. An empty session identifier is ErrMalformed: every
// connection is an exactly-once session. When the magic and version parse
// but the session fields do not — the shape of an older client's shorter Hello — the version is
// still returned alongside the error, so a server can answer with a
// version refusal instead of a generic malformed-frame error.
func ParseHello(body []byte) (version uint64, session string, resumeSeq uint64, err error) {
	if len(body) < 4 {
		return 0, "", 0, fmt.Errorf("%w: hello too short", ErrMalformed)
	}
	if binary.BigEndian.Uint32(body) != Magic {
		return 0, "", 0, fmt.Errorf("%w: bad magic %#x", ErrMalformed, binary.BigEndian.Uint32(body))
	}
	r := bodyReader{b: body, off: 4}
	if version, err = r.uvarint(); err != nil {
		return 0, "", 0, err
	}
	n, err := r.uvarint()
	if err != nil {
		return version, "", 0, err
	}
	if n == 0 {
		return version, "", 0, fmt.Errorf("%w: empty session id", ErrMalformed)
	}
	if n > MaxSession {
		return version, "", 0, fmt.Errorf("%w: session id %d bytes exceeds %d", ErrMalformed, n, MaxSession)
	}
	if n > uint64(len(body)-r.off) {
		return version, "", 0, fmt.Errorf("%w: truncated session id", ErrMalformed)
	}
	session = string(body[r.off : r.off+int(n)])
	r.off += int(n)
	if resumeSeq, err = r.uvarint(); err != nil {
		return version, "", 0, err
	}
	if err := r.done(); err != nil {
		return version, "", 0, err
	}
	return version, session, resumeSeq, nil
}

// Welcome is the server's half of the handshake.
type Welcome struct {
	Version uint64
	Dim     uint64 // matrix dimension
	Shards  uint64 // server-side shard count (informational)
	Durable bool   // inserts are write-ahead-logged; Flush acks durability
	// Window is the server's level-0 window duration in nanoseconds; 0
	// means the server is flat (not windowed). A windowed server accepts
	// InsertAt/Range*/Subscribe and refuses plain Insert; a flat server
	// the reverse. Clients also use it to cut timestamped batches at
	// window boundaries.
	Window uint64
	// LastSeq is the server's highest durably-applied insert seq for the
	// Hello's session (0 for a fresh session): the client may
	// drop every unacked frame at or below it from its retransmit ring
	// and must retransmit everything above it. On a non-durable server it
	// is the highest accepted seq instead.
	//
	// LastSeq deliberately under-reports — it trails the accepted
	// frontier until a Flush/Checkpoint barrier, and after server
	// recovery it is the min over per-shard session tables — so it is
	// safe for trimming but NOT for choosing the next seq to send.
	LastSeq uint64
	// HighSeq is the seq-minting floor: the highest insert seq the
	// server's dedup state has ever recorded for the Hello's session, on
	// any shard (0 for a fresh session). It is always >= LastSeq
	// and deliberately over-reports. A client resuming a session without
	// its in-memory retransmit ring (a fresh process) must mint new seqs
	// strictly above HighSeq; minting in (LastSeq, HighSeq] would collide
	// with seqs an earlier incarnation already used, and the server would
	// ack the new frames as duplicates without applying them.
	HighSeq uint64
}

// AppendWelcome builds a Welcome body.
func AppendWelcome(buf []byte, w Welcome) []byte {
	buf = binary.AppendUvarint(buf, w.Version)
	buf = binary.AppendUvarint(buf, w.Dim)
	buf = binary.AppendUvarint(buf, w.Shards)
	flags := byte(0)
	if w.Durable {
		flags = 1
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, w.Window)
	buf = binary.AppendUvarint(buf, w.LastSeq)
	return binary.AppendUvarint(buf, w.HighSeq)
}

// ParseWelcome decodes a Welcome body.
func ParseWelcome(body []byte) (Welcome, error) {
	var w Welcome
	r := bodyReader{b: body}
	var err error
	if w.Version, err = r.uvarint(); err != nil {
		return w, err
	}
	if w.Dim, err = r.uvarint(); err != nil {
		return w, err
	}
	if w.Shards, err = r.uvarint(); err != nil {
		return w, err
	}
	flags, err := r.byte()
	if err != nil {
		return w, err
	}
	if flags > 1 {
		return w, fmt.Errorf("%w: unknown welcome flags %#x", ErrMalformed, flags)
	}
	w.Durable = flags == 1
	if w.Window, err = r.uvarint(); err != nil {
		return w, err
	}
	if w.LastSeq, err = r.uvarint(); err != nil {
		return w, err
	}
	if w.HighSeq, err = r.uvarint(); err != nil {
		return w, err
	}
	return w, r.done()
}

// AppendInsert builds an Insert body: seq, then the batch in the WAL record
// codec. Batches beyond MaxBatch are refused (split them upstream).
func AppendInsert(buf []byte, seq uint64, rows, cols, vals []uint64) ([]byte, error) {
	if len(rows) > MaxBatch {
		return nil, fmt.Errorf("%w: batch of %d entries exceeds %d", ErrMalformed, len(rows), MaxBatch)
	}
	buf = binary.AppendUvarint(buf, seq)
	return wal.AppendBatchRecord(buf, rows, cols, vals, func(v uint64) uint64 { return v }), nil
}

// Batch is reusable decode scratch for Insert/InsertAt bodies: the three
// entry slices are overwritten by each ParseInsertBatch/ParseInsertAtBatch
// call, reusing their capacity. A Batch warmed to the connection's working
// batch size makes decode allocation-free, which is why the server pools
// them per connection instead of allocating per frame.
type Batch struct {
	Rows, Cols, Vals []uint64
}

// Len returns the number of entries in the decoded batch.
func (b *Batch) Len() int { return len(b.Rows) }

// errTruncatedCount is built once: the zero-allocation decode path must
// not construct error values per failure.
var errTruncatedCount = fmt.Errorf("%w: truncated batch count", ErrMalformed)

// errOversizeBatch and wrapMalformed live outside the noalloc parse path
// so their formatting allocations stay off it (errors are not steady
// state).
func errOversizeBatch(n uint64) error {
	return fmt.Errorf("%w: batch of %d entries exceeds %d", ErrMalformed, n, MaxBatch)
}

func wrapMalformed(err error) error {
	return fmt.Errorf("%w: %v", ErrMalformed, err)
}

// ParseInsertBatch decodes an Insert body into b, reusing its capacity.
// It allocates nothing once b has warmed to the working batch size. The
// batch's slice lengths always match; index bounds are the server's to
// validate.
//
//hhgb:noalloc
func ParseInsertBatch(body []byte, b *Batch) (seq uint64, err error) {
	r := bodyReader{b: body}
	if seq, err = r.uvarint(); err != nil {
		return 0, err
	}
	return seq, parseBatchBody(body[r.off:], b)
}

// parseBatchBody decodes the WAL-codec batch record that terminates an
// Insert/InsertAt body into b's scratch.
//
//hhgb:noalloc
func parseBatchBody(rec []byte, b *Batch) error {
	// Peek the batch count so an oversized batch errors before the WAL
	// decoder's (record-bounded, but larger) scratch growth.
	n, k := binary.Uvarint(rec)
	if k <= 0 {
		return errTruncatedCount
	}
	if n > MaxBatch {
		return errOversizeBatch(n)
	}
	rows, cols, vals, err := wal.DecodeBatchRecordInto(rec, b.Rows[:0], b.Cols[:0], b.Vals[:0], identU64)
	if err != nil {
		return wrapMalformed(err)
	}
	b.Rows, b.Cols, b.Vals = rows, cols, vals
	return nil
}

// identU64 is the value codec for uint64 payloads; a named function (not a
// closure) so taking its value never allocates.
func identU64(v uint64) uint64 { return v }

// AppendInsertAt builds an InsertAt body: seq, event timestamp (unix
// nanoseconds; every entry in the frame shares it, so the server routes
// the whole batch into one window), then the batch in the WAL record
// codec. Batches beyond MaxBatch are refused (split them upstream).
func AppendInsertAt(buf []byte, seq uint64, ts uint64, rows, cols, vals []uint64) ([]byte, error) {
	if len(rows) > MaxBatch {
		return nil, fmt.Errorf("%w: batch of %d entries exceeds %d", ErrMalformed, len(rows), MaxBatch)
	}
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, ts)
	return wal.AppendBatchRecord(buf, rows, cols, vals, func(v uint64) uint64 { return v }), nil
}

// ParseInsertAtBatch decodes an InsertAt body into b, reusing its
// capacity. It allocates nothing once b has warmed to the working batch
// size.
//
//hhgb:noalloc
func ParseInsertAtBatch(body []byte, b *Batch) (seq, ts uint64, err error) {
	r := bodyReader{b: body}
	if seq, err = r.uvarint(); err != nil {
		return 0, 0, err
	}
	if ts, err = r.uvarint(); err != nil {
		return 0, 0, err
	}
	return seq, ts, parseBatchBody(body[r.off:], b)
}

// SubscribeAllLevels is the Subscribe level wildcard: summaries of every
// hierarchy level.
const SubscribeAllLevels byte = 0xff

// AppendSubscribe builds a Subscribe body: the server acks it, then pushes
// one WindowSummary frame per sealed window of the requested level
// (SubscribeAllLevels = every level), tagged with this seq, until the
// connection closes.
func AppendSubscribe(buf []byte, seq uint64, level byte) []byte {
	buf = binary.AppendUvarint(buf, seq)
	return append(buf, level)
}

// ParseSubscribe decodes a Subscribe body.
func ParseSubscribe(body []byte) (seq uint64, level byte, err error) {
	r := bodyReader{b: body}
	if seq, err = r.uvarint(); err != nil {
		return 0, 0, err
	}
	if level, err = r.byte(); err != nil {
		return 0, 0, err
	}
	return seq, level, r.done()
}

// WindowSummary is the per-window digest a windowed server pushes to a
// subscribed connection when a window seals.
type WindowSummary struct {
	Sub          uint64 // the Subscribe request's seq
	Level        uint64 // 0 = finest
	Start, End   uint64 // event-time bounds, unix nanoseconds
	Entries      uint64 // distinct stored cells
	Sources      uint64 // non-empty rows
	Destinations uint64 // non-empty columns
	Packets      uint64 // sum of stored weights
}

// AppendWindowSummary builds a WindowSummary body.
func AppendWindowSummary(buf []byte, ws WindowSummary) []byte {
	for _, v := range [...]uint64{ws.Sub, ws.Level, ws.Start, ws.End, ws.Entries, ws.Sources, ws.Destinations, ws.Packets} {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// ParseWindowSummary decodes a WindowSummary body.
func ParseWindowSummary(body []byte) (WindowSummary, error) {
	var ws WindowSummary
	r := bodyReader{b: body}
	var err error
	for _, p := range [...]*uint64{&ws.Sub, &ws.Level, &ws.Start, &ws.End, &ws.Entries, &ws.Sources, &ws.Destinations, &ws.Packets} {
		if *p, err = r.uvarint(); err != nil {
			return ws, err
		}
	}
	return ws, r.done()
}

// AppendSeq builds the body shared by Flush, Checkpoint, Goodbye, and Ack
// frames: the sequence number alone.
func AppendSeq(buf []byte, seq uint64) []byte {
	return binary.AppendUvarint(buf, seq)
}

// ParseSeq decodes a seq-only body.
func ParseSeq(body []byte) (seq uint64, err error) {
	r := bodyReader{b: body}
	if seq, err = r.uvarint(); err != nil {
		return 0, err
	}
	return seq, r.done()
}

// AppendLookupResp builds a LookupResp body.
func AppendLookupResp(buf []byte, seq uint64, found bool, value uint64) []byte {
	buf = binary.AppendUvarint(buf, seq)
	f := byte(0)
	if found {
		f = 1
	}
	buf = append(buf, f)
	return binary.AppendUvarint(buf, value)
}

// ParseLookupResp decodes a LookupResp body.
func ParseLookupResp(body []byte) (seq uint64, found bool, value uint64, err error) {
	r := bodyReader{b: body}
	if seq, err = r.uvarint(); err != nil {
		return
	}
	f, err := r.byte()
	if err != nil {
		return 0, false, 0, err
	}
	if f > 1 {
		return 0, false, 0, fmt.Errorf("%w: bad found flag %#x", ErrMalformed, f)
	}
	if value, err = r.uvarint(); err != nil {
		return 0, false, 0, err
	}
	return seq, f == 1, value, r.done()
}

// Ranked is one TopKResp entry.
type Ranked struct {
	ID    uint64
	Value uint64
}

// AppendTopKResp builds a TopKResp body.
func AppendTopKResp(buf []byte, seq uint64, top []Ranked) []byte {
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(top)))
	for _, t := range top {
		buf = binary.AppendUvarint(buf, t.ID)
		buf = binary.AppendUvarint(buf, t.Value)
	}
	return buf
}

// ParseTopKResp decodes a TopKResp body.
func ParseTopKResp(body []byte) (seq uint64, top []Ranked, err error) {
	r := bodyReader{b: body}
	if seq, err = r.uvarint(); err != nil {
		return 0, nil, err
	}
	n, err := r.uvarint()
	if err != nil {
		return 0, nil, err
	}
	// Each entry needs >= 2 bytes; bound n before allocating.
	if n > uint64(len(body)-r.off)/2 {
		return 0, nil, fmt.Errorf("%w: top-k count %d exceeds body", ErrMalformed, n)
	}
	top = make([]Ranked, n)
	for i := range top {
		if top[i].ID, err = r.uvarint(); err != nil {
			return 0, nil, err
		}
		if top[i].Value, err = r.uvarint(); err != nil {
			return 0, nil, err
		}
	}
	return seq, top, r.done()
}

// Summary mirrors the facade's Summary over the wire.
type Summary struct {
	Entries      uint64
	Sources      uint64
	Destinations uint64
	TotalPackets uint64
	MaxOutDegree uint64
	MaxInDegree  uint64
}

// AppendSummaryResp builds a SummaryResp body.
func AppendSummaryResp(buf []byte, seq uint64, s Summary) []byte {
	buf = binary.AppendUvarint(buf, seq)
	for _, v := range [...]uint64{s.Entries, s.Sources, s.Destinations, s.TotalPackets, s.MaxOutDegree, s.MaxInDegree} {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// ParseSummaryResp decodes a SummaryResp body.
func ParseSummaryResp(body []byte) (seq uint64, s Summary, err error) {
	r := bodyReader{b: body}
	if seq, err = r.uvarint(); err != nil {
		return 0, s, err
	}
	for _, p := range [...]*uint64{&s.Entries, &s.Sources, &s.Destinations, &s.TotalPackets, &s.MaxOutDegree, &s.MaxInDegree} {
		if *p, err = r.uvarint(); err != nil {
			return 0, s, err
		}
	}
	return seq, s, r.done()
}

// MaxErrorMsg caps an Error frame's message length.
const MaxErrorMsg = 1 << 10

// AppendError builds an Error body. Messages are truncated to MaxErrorMsg.
func AppendError(buf []byte, seq, code uint64, msg string) []byte {
	if len(msg) > MaxErrorMsg {
		msg = msg[:MaxErrorMsg]
	}
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, code)
	buf = binary.AppendUvarint(buf, uint64(len(msg)))
	return append(buf, msg...)
}

// ParseError decodes an Error body.
func ParseError(body []byte) (seq, code uint64, msg string, err error) {
	r := bodyReader{b: body}
	if seq, err = r.uvarint(); err != nil {
		return
	}
	if code, err = r.uvarint(); err != nil {
		return
	}
	n, err := r.uvarint()
	if err != nil {
		return 0, 0, "", err
	}
	if n > MaxErrorMsg || n > uint64(len(body)-r.off) {
		return 0, 0, "", fmt.Errorf("%w: error message length %d exceeds body", ErrMalformed, n)
	}
	msg = string(body[r.off : r.off+int(n)])
	r.off += int(n)
	return seq, code, msg, r.done()
}

// Query is one read request, whatever frame carried it: a Lookup, TopK or
// Summary, flat or restricted to an event-time range, plain or wrapped in
// an Explain. A flat query is a ranged query with no bounds.
type Query struct {
	Seq uint64
	// Op is the query kind: KindLookup, KindTopK, KindSummary, or their
	// Range variants. Only the fields that op defines are meaningful; the
	// body carries exactly those, in the order below.
	Op       byte
	Src, Dst uint64 // lookup ops
	Axis     byte   // top-k ops
	K        uint64 // top-k ops
	T0, T1   uint64 // range ops: [T0, T1) in unix nanoseconds
}

// queryFields is the one definition of the query request bodies: which
// field groups each op carries after its seq — src,dst, then axis,k, then
// t0,t1, every field a uvarint except the one-byte axis.
func queryFields(op byte) (lookup, topk, ranged, ok bool) {
	switch op {
	case KindLookup:
		return true, false, false, true
	case KindTopK:
		return false, true, false, true
	case KindSummary:
		return false, false, false, true
	case KindRangeLookup:
		return true, false, true, true
	case KindRangeTopK:
		return false, true, true, true
	case KindRangeSummary:
		return false, false, true, true
	}
	return false, false, false, false
}

// Ranged reports whether q.Op carries event-time bounds.
func (q Query) Ranged() bool {
	_, _, ranged, _ := queryFields(q.Op)
	return ranged
}

// AppendQuery builds the body of a query frame of the given kind. For the
// six query kinds the frame kind is the op (q.Op is not consulted) and the
// body is seq followed by the op's fields. For KindExplain the body is
// seq, the wrapped op q.Op, then that op's fields. Kinds and ops outside
// the six, and unknown axes, are refused.
func AppendQuery(buf []byte, kind byte, q Query) ([]byte, error) {
	op := kind
	if kind == KindExplain {
		op = q.Op
	}
	lookup, topk, ranged, ok := queryFields(op)
	if !ok {
		return nil, fmt.Errorf("%w: op 0x%02x is not a query", ErrMalformed, op)
	}
	if topk && q.Axis > AxisDestinations {
		return nil, fmt.Errorf("%w: unknown axis %d", ErrMalformed, q.Axis)
	}
	buf = binary.AppendUvarint(buf, q.Seq)
	if kind == KindExplain {
		buf = append(buf, op)
	}
	if lookup {
		buf = binary.AppendUvarint(buf, q.Src)
		buf = binary.AppendUvarint(buf, q.Dst)
	}
	if topk {
		buf = append(buf, q.Axis)
		buf = binary.AppendUvarint(buf, q.K)
	}
	if ranged {
		buf = binary.AppendUvarint(buf, q.T0)
		buf = binary.AppendUvarint(buf, q.T1)
	}
	return buf, nil
}

// ParseQuery decodes the body of a query frame of the given kind (one of
// the six query kinds, or KindExplain) into a Query whose Op is the op to
// run: the kind itself, or the op an Explain wraps.
func ParseQuery(kind byte, body []byte) (Query, error) {
	q := Query{Op: kind}
	r := bodyReader{b: body}
	var err error
	if q.Seq, err = r.uvarint(); err != nil {
		return Query{}, err
	}
	if kind == KindExplain {
		if q.Op, err = r.byte(); err != nil {
			return Query{}, err
		}
	}
	lookup, topk, ranged, ok := queryFields(q.Op)
	if !ok {
		return Query{}, fmt.Errorf("%w: op 0x%02x is not a query", ErrMalformed, q.Op)
	}
	if lookup {
		if q.Src, err = r.uvarint(); err != nil {
			return Query{}, err
		}
		if q.Dst, err = r.uvarint(); err != nil {
			return Query{}, err
		}
	}
	if topk {
		if q.Axis, err = r.byte(); err != nil {
			return Query{}, err
		}
		if q.Axis > AxisDestinations {
			return Query{}, fmt.Errorf("%w: unknown axis %d", ErrMalformed, q.Axis)
		}
		if q.K, err = r.uvarint(); err != nil {
			return Query{}, err
		}
	}
	if ranged {
		if q.T0, err = r.uvarint(); err != nil {
			return Query{}, err
		}
		if q.T1, err = r.uvarint(); err != nil {
			return Query{}, err
		}
	}
	return q, r.done()
}

// ExplainLeg is one fan-out leg of an ExplainResp: the cover window it
// hit (level and event-time bounds; zeros on a flat server's single leg),
// the per-shard tasks it issued, and the leg's duration.
type ExplainLeg struct {
	Level      uint64
	Start, End uint64 // event-time bounds, unix nanoseconds
	Shards     uint64
	DurNanos   uint64
}

// ExplainSpan is one uncovered hole of an explained range query.
type ExplainSpan struct {
	Start, End uint64
}

// Explain is the structured trailer an ExplainResp carries: the cover the
// query was served from (one timed leg per window, in time order), the
// uncovered holes, the end-to-end execution time, and the shard
// pushdown-cache traffic observed around the query (best-effort under
// concurrent load — the counters are server-global).
type Explain struct {
	Op          byte
	TotalNanos  uint64
	Legs        []ExplainLeg
	Uncovered   []ExplainSpan
	CacheHits   uint64
	CacheMisses uint64
}

// AppendExplainResp builds an ExplainResp body.
func AppendExplainResp(buf []byte, seq uint64, e Explain) []byte {
	buf = binary.AppendUvarint(buf, seq)
	buf = append(buf, e.Op)
	buf = binary.AppendUvarint(buf, e.TotalNanos)
	buf = binary.AppendUvarint(buf, e.CacheHits)
	buf = binary.AppendUvarint(buf, e.CacheMisses)
	buf = binary.AppendUvarint(buf, uint64(len(e.Legs)))
	for _, l := range e.Legs {
		for _, v := range [...]uint64{l.Level, l.Start, l.End, l.Shards, l.DurNanos} {
			buf = binary.AppendUvarint(buf, v)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(e.Uncovered)))
	for _, s := range e.Uncovered {
		buf = binary.AppendUvarint(buf, s.Start)
		buf = binary.AppendUvarint(buf, s.End)
	}
	return buf
}

// ParseExplainResp decodes an ExplainResp body.
func ParseExplainResp(body []byte) (seq uint64, e Explain, err error) {
	r := bodyReader{b: body}
	if seq, err = r.uvarint(); err != nil {
		return 0, e, err
	}
	if e.Op, err = r.byte(); err != nil {
		return 0, Explain{}, err
	}
	if _, _, _, ok := queryFields(e.Op); !ok {
		return 0, Explain{}, fmt.Errorf("%w: op 0x%02x is not a query", ErrMalformed, e.Op)
	}
	for _, p := range [...]*uint64{&e.TotalNanos, &e.CacheHits, &e.CacheMisses} {
		if *p, err = r.uvarint(); err != nil {
			return 0, Explain{}, err
		}
	}
	n, err := r.uvarint()
	if err != nil {
		return 0, Explain{}, err
	}
	// Each leg needs >= 5 bytes; bound n before allocating.
	if n > uint64(len(body)-r.off)/5 {
		return 0, Explain{}, fmt.Errorf("%w: explain leg count %d exceeds body", ErrMalformed, n)
	}
	if n > 0 {
		e.Legs = make([]ExplainLeg, n)
	}
	for i := range e.Legs {
		l := &e.Legs[i]
		for _, p := range [...]*uint64{&l.Level, &l.Start, &l.End, &l.Shards, &l.DurNanos} {
			if *p, err = r.uvarint(); err != nil {
				return 0, Explain{}, err
			}
		}
	}
	n, err = r.uvarint()
	if err != nil {
		return 0, Explain{}, err
	}
	// Each hole needs >= 2 bytes.
	if n > uint64(len(body)-r.off)/2 {
		return 0, Explain{}, fmt.Errorf("%w: explain hole count %d exceeds body", ErrMalformed, n)
	}
	if n > 0 {
		e.Uncovered = make([]ExplainSpan, n)
	}
	for i := range e.Uncovered {
		if e.Uncovered[i].Start, err = r.uvarint(); err != nil {
			return 0, Explain{}, err
		}
		if e.Uncovered[i].End, err = r.uvarint(); err != nil {
			return 0, Explain{}, err
		}
	}
	return seq, e, r.done()
}
