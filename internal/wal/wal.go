// Package wal implements a CRC32-framed append-only write-ahead log: the
// durability path of the sharded ingest frontend's one log per group.
//
// # Framing
//
// A log is a sequence of self-delimiting frames with no file header:
//
//	frame := uvarint(len(payload)) ‖ crc32c(payload) ‖ payload
//
// The length is a standard unsigned varint (1–10 bytes); the checksum is a
// little-endian CRC-32 of the payload alone using the Castagnoli
// polynomial. A frame never spans files. Because frames carry no
// end-marker, the only way a log ends cleanly is exactly at a frame
// boundary; a crash while appending can leave a final frame that is torn
// (cut mid-length, mid-checksum, or mid-payload) or that fails its
// checksum. Reader.Next distinguishes the three outcomes a recovery loop
// must handle:
//
//   - io.EOF: the clean end of the log — the previous frame was the last.
//   - ErrCorrupt (wrapped, inspect with errors.Is): the bytes at the read
//     position are not a whole valid frame — a torn tail or bit rot.
//     Everything before this frame replayed intact; nothing at or after it
//     can be trusted.
//   - any other error: an I/O failure from the underlying reader.
//
// Records become durable at Sync, the group-commit boundary: Writer buffers
// frames in memory, and Sync flushes the buffered group (File.Sync also
// fsyncs, making the group crash-durable rather than merely visible).
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// ErrCorrupt is returned when the log does not continue with a whole valid
// frame: a checksum mismatch, a torn final frame, or an absurd length.
// It is always wrapped with context; test with errors.Is.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrRecordTooLarge is returned by Append for a record beyond MaxRecord.
var ErrRecordTooLarge = errors.New("wal: record exceeds MaxRecord")

// MaxRecord caps a single record's payload length, enforced on BOTH sides:
// Append refuses to write a larger record (a reader would have to treat
// the oversized frame as corruption, silently discarding data the writer
// fsync-confirmed), and a length prefix beyond it is treated as corruption
// rather than an allocation request — a torn or bit-rotted length varint
// would otherwise ask for gigabytes.
const MaxRecord = 1 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer appends framed records to an underlying writer.
type Writer struct {
	bw    *bufio.Writer
	bytes int64
	syncs int64
	// hdr stages a frame's length and checksum. A stack array would
	// escape through bufio's underlying io.Writer and cost two
	// allocations per record.
	hdr [binary.MaxVarintLen64 + 4]byte
}

// NewWriter returns a log writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Append frames and buffers one record. The record becomes durable at the
// next Sync. Records longer than MaxRecord are rejected with
// ErrRecordTooLarge before anything is written.
func (w *Writer) Append(rec []byte) error {
	if len(rec) > MaxRecord {
		return fmt.Errorf("%w: %d bytes > %d", ErrRecordTooLarge, len(rec), MaxRecord)
	}
	n := binary.PutUvarint(w.hdr[:], uint64(len(rec)))
	binary.LittleEndian.PutUint32(w.hdr[n:], crc32.Checksum(rec, castagnoli))
	if _, err := w.bw.Write(w.hdr[:n+4]); err != nil {
		return err
	}
	if _, err := w.bw.Write(rec); err != nil {
		return err
	}
	w.bytes += int64(n + 4 + len(rec))
	return nil
}

// Sync flushes all buffered frames — the group-commit point.
func (w *Writer) Sync() error {
	w.syncs++
	return w.bw.Flush()
}

// Bytes returns the number of framed bytes produced.
func (w *Writer) Bytes() int64 { return w.bytes }

// Syncs returns the number of Sync calls.
func (w *Writer) Syncs() int64 { return w.syncs }

// Reader replays a log produced by Writer.
type Reader struct {
	br *bufio.Reader
}

// NewReader returns a log reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Next returns the next record. At the end of the log it returns io.EOF if
// the log ends cleanly on a frame boundary, or an error wrapping ErrCorrupt
// if the final frame is torn (the log stops mid-frame — the signature of a
// crash between Append and Sync) or fails its checksum. Frames before a
// corrupt one are unaffected; nothing at or after it should be trusted.
func (r *Reader) Next() ([]byte, error) {
	length, n, err := ReadUvarint(r.br)
	if err != nil {
		if n == 0 && errors.Is(err, io.EOF) {
			return nil, io.EOF // clean end: no bytes of a next frame exist
		}
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("wal: torn frame length (%d bytes): %w", n, ErrCorrupt)
		}
		if errors.Is(err, ErrVarint) {
			return nil, fmt.Errorf("wal: frame length: %v: %w", err, ErrCorrupt)
		}
		return nil, fmt.Errorf("wal: reading frame length: %w", err)
	}
	if length > MaxRecord {
		return nil, fmt.Errorf("wal: frame length %d exceeds %d: %w", length, MaxRecord, ErrCorrupt)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r.br, crc[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("wal: torn frame checksum: %w", ErrCorrupt)
		}
		return nil, fmt.Errorf("wal: reading crc: %w", err)
	}
	rec := make([]byte, length)
	if _, err := io.ReadFull(r.br, rec); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("wal: torn frame payload: %w", ErrCorrupt)
		}
		return nil, fmt.Errorf("wal: reading payload: %w", err)
	}
	if crc32.Checksum(rec, castagnoli) != binary.LittleEndian.Uint32(crc[:]) {
		return nil, fmt.Errorf("wal: checksum mismatch: %w", ErrCorrupt)
	}
	return rec, nil
}

// ErrVarint is returned (wrapped) by ReadUvarint for an overlong or
// overflowing length varint; each framing layer maps it to its own
// corruption sentinel (this package to ErrCorrupt, the network protocol
// to its malformed-frame error).
var ErrVarint = errors.New("wal: invalid length varint")

// ReadUvarint is binary.ReadUvarint, additionally reporting how many bytes
// were consumed — so a caller can tell a clean EOF (zero bytes) from a
// torn varint (some bytes, then EOF) — and rejecting non-canonical
// overlong encodings with an ErrVarint-wrapped error. It is the shared
// length-prefix reader of the WAL frame format and the network protocol's
// frame format.
func ReadUvarint(br io.ByteReader) (uint64, int, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := br.ReadByte()
		if err != nil {
			return x, i, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return x, i + 1, fmt.Errorf("%w: overflows uint64", ErrVarint)
			}
			return x | uint64(b)<<s, i + 1, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return x, binary.MaxVarintLen64, fmt.Errorf("%w: longer than %d bytes", ErrVarint, binary.MaxVarintLen64)
}

// File is a Writer bound to an operating-system file, adding the fsync and
// segment-rotation halves a crash-durable log needs. Its Sync makes the
// buffered group durable (flush + fsync), not merely visible.
type File struct {
	*Writer
	f *os.File
}

// Create creates (or truncates) a log file at path.
func Create(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &File{Writer: NewWriter(f), f: f}, nil
}

// Sync flushes the buffered frames and fsyncs the file: on return, every
// appended record survives a crash.
func (l *File) Sync() error {
	if err := l.Writer.Sync(); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close syncs and closes the file. The *File must not be used afterwards.
func (l *File) Close() error {
	syncErr := l.Sync()
	closeErr := l.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Rotate syncs and closes the current segment and starts a fresh one at
// path, returning the new *File. The old segment is left on disk for the
// caller to retire once whatever supersedes it (a checkpoint manifest) is
// durable. On error the current segment may already be closed.
func (l *File) Rotate(path string) (*File, error) {
	if err := l.Close(); err != nil {
		return nil, err
	}
	return Create(path)
}
