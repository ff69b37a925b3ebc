// Package gb implements the GraphBLAS-style hypersparse matrix substrate used
// by the hierarchical streaming-insert library.
//
// The package provides a deliberately small but mathematically complete subset
// of the GraphBLAS standard in pure Go:
//
//   - Matrix[T] and Vector[T]: hypersparse containers with 64-bit indices,
//     valid for dimensions up to 2^64 (IPv6-scale traffic matrices).
//   - Non-blocking updates: SetElement and AppendTuples buffer "pending
//     tuples" (as SuiteSparse:GraphBLAS does); Wait materializes them.
//   - Element-wise addition (EWiseAdd, AddAssign, Promote, Sum) and Reduce.
//
// Storage is always sorted coordinate triples: three equal-length arrays of
// row ids, column ids and values, ordered by (row, col). The streaming
// traffic-matrix workload lives in the most hypersparse regime there is —
// about one cell per non-empty row at IPv4 scale — where a compressed row
// index (DCSR's row id plus row pointer per row) costs more than it saves:
// a triple is 24 bytes for a uint64 matrix, and a merge writes nothing per
// row.
//
// All operations preserve explicit zeros, matching GraphBLAS semantics: an
// entry with value 0 is still an entry. This is what makes the hierarchical
// cascade (internal/hier) exactly linear.
package gb

import "errors"

// Index addresses rows and columns. It is 64-bit so a single matrix can span
// the full IPv6 address space (2^64 x 2^64).
type Index = uint64

// Number constrains the value types a Matrix or Vector may hold.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// Tuple is a single stored entry (row, column, value).
type Tuple[T Number] struct {
	Row Index
	Col Index
	Val T
}

// Errors returned by operations in this package. They mirror the GraphBLAS
// error codes that matter for a pure in-memory implementation.
var (
	// ErrDimensionMismatch is returned when operand shapes are incompatible.
	ErrDimensionMismatch = errors.New("gb: dimension mismatch")
	// ErrIndexOutOfBounds is returned when an index is >= the matrix dimension.
	ErrIndexOutOfBounds = errors.New("gb: index out of bounds")
	// ErrOutputNotEmpty is returned by Build when the target already has entries.
	ErrOutputNotEmpty = errors.New("gb: output matrix must be empty")
	// ErrInvalidValue is returned for malformed arguments (mismatched slice
	// lengths, zero dimensions, nil operators, ...).
	ErrInvalidValue = errors.New("gb: invalid value")
	// ErrNoValue is returned by ExtractElement when no entry is present.
	ErrNoValue = errors.New("gb: no entry at index")
)
