package wal

import (
	"encoding/binary"
	"fmt"

	"hhgb/internal/gb"
)

// Session header codec.
//
// Exactly-once network ingest journals the deduplication key alongside
// every logged batch: a group WAL record is a session header followed by
// the batch record,
//
//	record := uvarint(len(session)) ‖ session ‖ uvarint(seq) ‖ batch record
//
// where (session, seq) identifies the client insert frame the batch came
// from. Batches with no session (local ingest, appender handoffs) carry
// the two-byte empty header (len 0, seq 0), so one record format serves
// both paths and replay never guesses. Recovery replays the batch and
// advances the group's per-session high-water mark to seq, rebuilding the
// dedup table the manifest checkpoint may not have caught up to.

// MaxSessionID caps a session identifier's length on both sides: the
// append path refuses to journal a longer one and a decoded length beyond
// it is corruption, never an allocation request.
const MaxSessionID = 256

// AppendSessionHeader encodes the (session, seq) dedup header onto buf and
// returns the extended slice. An empty session must carry seq 0.
func AppendSessionHeader(buf []byte, session string, seq uint64) ([]byte, error) {
	if len(session) > MaxSessionID {
		return nil, fmt.Errorf("%w: session id %d bytes > %d", gb.ErrInvalidValue, len(session), MaxSessionID)
	}
	if session == "" && seq != 0 {
		return nil, fmt.Errorf("%w: sequence %d without a session", gb.ErrInvalidValue, seq)
	}
	buf = binary.AppendUvarint(buf, uint64(len(session)))
	buf = append(buf, session...)
	buf = binary.AppendUvarint(buf, seq)
	return buf, nil
}

// DecodeSessionHeader parses the header produced by AppendSessionHeader
// and returns the remainder of the record (the batch record).
func DecodeSessionHeader(rec []byte) (session string, seq uint64, rest []byte, err error) {
	n, k := binary.Uvarint(rec)
	if k <= 0 {
		return "", 0, nil, fmt.Errorf("%w: wal record: bad session length", gb.ErrInvalidValue)
	}
	if n > MaxSessionID || n > uint64(len(rec)-k) {
		return "", 0, nil, fmt.Errorf("%w: wal record: session length %d exceeds record", gb.ErrInvalidValue, n)
	}
	off := k + int(n)
	session = string(rec[k:off])
	seq, k = binary.Uvarint(rec[off:])
	if k <= 0 {
		return "", 0, nil, fmt.Errorf("%w: wal record: truncated session seq", gb.ErrInvalidValue)
	}
	if session == "" && seq != 0 {
		return "", 0, nil, fmt.Errorf("%w: wal record: sequence %d without a session", gb.ErrInvalidValue, seq)
	}
	return session, seq, rec[off+k:], nil
}
