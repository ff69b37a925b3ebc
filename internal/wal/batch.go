package wal

import (
	"encoding/binary"
	"fmt"
	"slices"

	"hhgb/internal/gb"
)

// Batch record codec.
//
// One record encodes one ingest batch: the unit the network protocol
// carries per Insert/InsertAt frame and a durable group logs per WAL
// frame. The two share this encoding; the group encodes each accepted
// batch whole, once.
//
//	record := uvarint(n) ‖ widths ‖ n × row ‖ n × col ‖ n × value
//
// Each of the three groups is fixed-width little-endian, at the smallest
// of 1, 2, 4 or 8 bytes that holds the OR of the group's words. widths is
// one byte of three 2-bit log₂ widths: rows in bits 0–1, cols in bits
// 2–3, values in bits 4–5; bits 6–7 are reserved and must be zero. Values
// cross as 8-byte words through a caller-supplied put/get pair
// (gb.Codec), so float types round-trip bit-exactly and integers
// losslessly. n and widths fix the record's length exactly, so a decoder
// checks it once and then runs one branch-free load loop per group.

// reservedWidths are the bits of the widths byte no encoder sets.
const reservedWidths = 0xc0

// AppendBatchRecord encodes one batch onto buf and returns the extended
// slice. cols and vals must be as long as rows. buf grows once, to the
// record's exact length: an insert frame's body lives on in the client's
// retransmit ring until a flush covers it.
func AppendBatchRecord[T gb.Number](buf []byte, rows, cols []gb.Index, vals []T, put func(T) uint64) []byte {
	n := len(rows)
	cols, vals = cols[:n], vals[:n]
	var orv uint64
	for _, v := range vals {
		orv |= put(v)
	}
	lr, lc, lv := logWidth(orWords(rows)), logWidth(orWords(cols)), logWidth(orv)
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = slices.Grow(buf, 1+n<<lr+n<<lc+n<<lv)
	buf = append(buf, lr|lc<<2|lv<<4)
	buf = appendWords(buf, rows, lr)
	buf = appendWords(buf, cols, lc)
	return appendValues(buf, vals, lv, put)
}

func orWords(xs []uint64) uint64 {
	var or uint64
	for _, x := range xs {
		or |= x
	}
	return or
}

// logWidth returns log₂ of the smallest of 1, 2, 4 or 8 bytes that holds x.
func logWidth(x uint64) byte {
	switch {
	case x <= 0xff:
		return 0
	case x <= 0xffff:
		return 1
	case x <= 0xffffffff:
		return 2
	}
	return 3
}

// appendWords stores xs onto buf at 1<<lw bytes each; buf has the capacity.
func appendWords(buf []byte, xs []uint64, lw byte) []byte {
	off := len(buf)
	buf = buf[:off+len(xs)<<lw]
	p := buf[off:]
	switch lw {
	case 0:
		p = p[:len(xs)]
		for i, x := range xs {
			p[i] = byte(x)
		}
	case 1:
		for i, x := range xs {
			binary.LittleEndian.PutUint16(p[2*i:], uint16(x))
		}
	case 2:
		for i, x := range xs {
			binary.LittleEndian.PutUint32(p[4*i:], uint32(x))
		}
	default:
		for i, x := range xs {
			binary.LittleEndian.PutUint64(p[8*i:], x)
		}
	}
	return buf
}

// appendValues is appendWords for the value group: each word comes from put.
func appendValues[T gb.Number](buf []byte, vals []T, lw byte, put func(T) uint64) []byte {
	off := len(buf)
	buf = buf[:off+len(vals)<<lw]
	p := buf[off:]
	switch lw {
	case 0:
		p = p[:len(vals)]
		for i, v := range vals {
			p[i] = byte(put(v))
		}
	case 1:
		for i, v := range vals {
			binary.LittleEndian.PutUint16(p[2*i:], uint16(put(v)))
		}
	case 2:
		for i, v := range vals {
			binary.LittleEndian.PutUint32(p[4*i:], uint32(put(v)))
		}
	default:
		for i, v := range vals {
			binary.LittleEndian.PutUint64(p[8*i:], put(v))
		}
	}
	return buf
}

// Decode errors are constructed once at package init: the zero-allocation
// decode path must not build error values per failure, and callers only
// ever errors.Is against gb.ErrInvalidValue anyway.
var (
	errBadBatchLen    = fmt.Errorf("%w: wal record: bad batch length", gb.ErrInvalidValue)
	errBatchTooLong   = fmt.Errorf("%w: wal record: batch length exceeds record", gb.ErrInvalidValue)
	errBadWidths      = fmt.Errorf("%w: wal record: reserved width bits set", gb.ErrInvalidValue)
	errTruncatedField = fmt.Errorf("%w: wal record: truncated field", gb.ErrInvalidValue)
	errTrailingBytes  = fmt.Errorf("%w: wal record: trailing bytes", gb.ErrInvalidValue)
)

// DecodeBatchRecord parses a record produced by AppendBatchRecord. The
// record must be exactly one batch — trailing bytes are an error — and a
// corrupt length prefix can never demand more memory than the record could
// hold. It allocates fresh output slices; the streaming hot path uses
// DecodeBatchRecordInto with retained scratch instead.
func DecodeBatchRecord[T gb.Number](rec []byte, get func(uint64) T) (rows, cols []gb.Index, vals []T, err error) {
	return DecodeBatchRecordInto(rec, nil, nil, nil, get)
}

// DecodeBatchRecordInto parses a record produced by AppendBatchRecord into
// the provided scratch slices, reusing their capacity (contents are
// overwritten; lengths are reset). It returns the filled slices — which
// alias the scratch when capacity sufficed — and allocates nothing once
// the scratch has warmed to the working batch size. A record is refused
// before any scratch grows.
//
//hhgb:noalloc
func DecodeBatchRecordInto[T gb.Number](rec []byte, rows, cols []gb.Index, vals []T, get func(uint64) T) ([]gb.Index, []gb.Index, []T, error) {
	n64, k := binary.Uvarint(rec)
	if k <= 0 {
		return nil, nil, nil, errBadBatchLen
	}
	if k == len(rec) {
		return nil, nil, nil, errTruncatedField // no widths byte
	}
	widths, body := rec[k], rec[k+1:]
	// Each entry takes at least 3 bytes: bound n by the body before the
	// widths make the length exact, so a corrupt count cannot overflow it.
	if n64 > uint64(len(body))/3 {
		return nil, nil, nil, errBatchTooLong
	}
	if widths&reservedWidths != 0 {
		return nil, nil, nil, errBadWidths
	}
	n := int(n64)
	lr, lc, lv := widths&3, widths>>2&3, widths>>4&3
	if need := n<<lr + n<<lc + n<<lv; len(body) < need {
		return nil, nil, nil, errTruncatedField
	} else if len(body) > need {
		return nil, nil, nil, errTrailingBytes
	}
	if cap(rows) < n || cap(cols) < n || cap(vals) < n {
		rows, cols, vals = growBatchScratch(rows, cols, vals, n)
	}
	rows, cols, vals = rows[:n], cols[:n], vals[:n]
	body = loadWords(rows, body, lr)
	body = loadWords(cols, body, lc)
	loadValues(vals, body, lv, get)
	return rows, cols, vals, nil
}

// loadWords fills dst from 1<<lw-byte words at the head of p and returns
// the rest of p; p holds them.
//
//hhgb:noalloc
func loadWords(dst []uint64, p []byte, lw byte) []byte {
	n := len(dst)
	switch lw {
	case 0:
		q := p[:n]
		for i := range dst {
			dst[i] = uint64(q[i])
		}
	case 1:
		q := p[:2*n]
		for i := range dst {
			dst[i] = uint64(binary.LittleEndian.Uint16(q[2*i:]))
		}
	case 2:
		q := p[:4*n]
		for i := range dst {
			dst[i] = uint64(binary.LittleEndian.Uint32(q[4*i:]))
		}
	default:
		q := p[:8*n]
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(q[8*i:])
		}
	}
	return p[n<<lw:]
}

// loadValues is loadWords for the value group: each word goes through get.
//
//hhgb:noalloc
func loadValues[T gb.Number](dst []T, p []byte, lw byte, get func(uint64) T) {
	switch lw {
	case 0:
		q := p[:len(dst)]
		for i := range dst {
			dst[i] = get(uint64(q[i]))
		}
	case 1:
		for i := range dst {
			dst[i] = get(uint64(binary.LittleEndian.Uint16(p[2*i:])))
		}
	case 2:
		for i := range dst {
			dst[i] = get(uint64(binary.LittleEndian.Uint32(p[4*i:])))
		}
	default:
		for i := range dst {
			dst[i] = get(binary.LittleEndian.Uint64(p[8*i:]))
		}
	}
}

// growBatchScratch replaces any of the three scratch slices whose capacity
// is below n, keeping DecodeBatchRecordInto itself free of allocation
// sites. Old contents are not preserved — decode overwrites everything.
func growBatchScratch[T gb.Number](rows, cols []gb.Index, vals []T, n int) ([]gb.Index, []gb.Index, []T) {
	if cap(rows) < n {
		rows = make([]gb.Index, n)
	}
	if cap(cols) < n {
		cols = make([]gb.Index, n)
	}
	if cap(vals) < n {
		vals = make([]T, n)
	}
	return rows, cols, vals
}
