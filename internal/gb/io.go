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
// entry count, then delta-varint row ids with per-row lengths, delta-varint
// columns, and codec-encoded values. Pending updates are materialized first.
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
	if err := putUvarint(uint64(len(m.rows))); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(m.col))); err != nil {
		return err
	}
	prevRow := uint64(0)
	for k, r := range m.rows {
		if err := putUvarint(r - prevRow); err != nil {
			return err
		}
		prevRow = r
		if err := putUvarint(uint64(m.ptr[k+1] - m.ptr[k])); err != nil {
			return err
		}
		prevCol := uint64(0)
		for p := m.ptr[k]; p < m.ptr[k+1]; p++ {
			delta := m.col[p]
			if p > m.ptr[k] {
				delta = m.col[p] - prevCol
			}
			prevCol = m.col[p]
			if err := putUvarint(delta); err != nil {
				return err
			}
		}
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
	m.rows = make([]Index, 0, nnzRows)
	m.ptr = make([]int, 1, nnzRows+1)
	m.col = make([]Index, 0, nnz)
	m.val = make([]T, nnz)
	prevRow := uint64(0)
	for k := uint64(0); k < nnzRows; k++ {
		dr, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		prevRow += dr
		m.rows = append(m.rows, prevRow)
		rl, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		prevCol := uint64(0)
		for p := uint64(0); p < rl; p++ {
			dc, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			if p == 0 {
				prevCol = dc
			} else {
				prevCol += dc
			}
			m.col = append(m.col, prevCol)
		}
		m.ptr = append(m.ptr, len(m.col))
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
