package gb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Codec converts matrix values to and from a fixed 8-byte wire word.
// Encoding is generic-value-type agnostic: the caller picks the codec that
// matches T's semantics (bit-exact for float64, lossless for integers that
// fit uint64/int64).
type Codec[T Number] struct {
	Put func(v T) uint64
	Get func(w uint64) T
}

// Float64Codec round-trips float-typed values bit-exactly through Float64bits.
func Float64Codec[T Number]() Codec[T] {
	return Codec[T]{
		Put: func(v T) uint64 { return math.Float64bits(float64(v)) },
		Get: func(w uint64) T { return T(math.Float64frombits(w)) },
	}
}

// Uint64Codec round-trips unsigned-integer-typed values losslessly.
func Uint64Codec[T Number]() Codec[T] {
	return Codec[T]{
		Put: func(v T) uint64 { return uint64(v) },
		Get: func(w uint64) T { return T(w) },
	}
}

// Int64Codec round-trips signed-integer-typed values losslessly.
func Int64Codec[T Number]() Codec[T] {
	return Codec[T]{
		Put: func(v T) uint64 { return uint64(int64(v)) },
		Get: func(w uint64) T { return T(int64(w)) },
	}
}

const matrixMagic = "HHGBmat1"

// Encode writes the matrix in a compact binary form: magic, dimensions,
// non-empty row count, entry count, then per row its delta-varint id, its
// cell count and its delta-varint columns (the first against 0), and last
// the codec-encoded values. Pending updates are materialized first.
func Encode[T Number](w io.Writer, m *Matrix[T], c Codec[T]) error {
	m.Wait()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(matrixMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(x uint64) error {
		n := binary.PutUvarint(buf[:], x)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(m.nrows); err != nil {
		return err
	}
	if err := putUvarint(m.ncols); err != nil {
		return err
	}
	if err := putUvarint(uint64(m.rowCount())); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(m.col))); err != nil {
		return err
	}
	prevRow := uint64(0)
	for lo := 0; lo < len(m.row); {
		r := m.row[lo]
		hi := lo + 1
		for hi < len(m.row) && m.row[hi] == r {
			hi++
		}
		if err := putUvarint(r - prevRow); err != nil {
			return err
		}
		prevRow = r
		if err := putUvarint(uint64(hi - lo)); err != nil {
			return err
		}
		prevCol := uint64(0)
		for _, c := range m.col[lo:hi] {
			if err := putUvarint(c - prevCol); err != nil {
				return err
			}
			prevCol = c
		}
		lo = hi
	}
	for _, v := range m.val {
		binary.LittleEndian.PutUint64(buf[:8], c.Put(v))
		if _, err := bw.Write(buf[:8]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a matrix written by Encode.
func Decode[T Number](r io.Reader, c Codec[T]) (*Matrix[T], error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(matrixMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("gb: reading magic: %w", err)
	}
	if string(magic) != matrixMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrInvalidValue, magic)
	}
	nrows, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	ncols, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	nnzRows, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	nnz, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	m, err := NewMatrix[T](nrows, ncols)
	if err != nil {
		return nil, err
	}
	m.row = make([]Index, 0, nnz)
	m.col = make([]Index, 0, nnz)
	m.val = make([]T, nnz)
	prevRow := uint64(0)
	for k := uint64(0); k < nnzRows; k++ {
		dr, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		prevRow += dr
		rl, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if rl == 0 || k > 0 && dr == 0 {
			return nil, fmt.Errorf("%w: row %d empty or repeated", ErrInvalidValue, prevRow)
		}
		prevCol := uint64(0)
		for p := uint64(0); p < rl; p++ {
			dc, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			prevCol += dc
			m.row = append(m.row, prevRow)
			m.col = append(m.col, prevCol)
		}
	}
	if uint64(len(m.col)) != nnz {
		return nil, fmt.Errorf("%w: entry count mismatch (%d != %d)", ErrInvalidValue, len(m.col), nnz)
	}
	var word [8]byte
	for k := range m.val {
		if _, err := io.ReadFull(br, word[:]); err != nil {
			return nil, err
		}
		m.val[k] = c.Get(binary.LittleEndian.Uint64(word[:]))
	}
	if err := m.checkInvariants(); err != nil {
		return nil, err
	}
	return m, nil
}
