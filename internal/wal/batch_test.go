package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"hhgb/internal/gb"
)

// maxBatch is the wire's per-frame entry cap (proto.MaxBatch), the largest
// batch a record carries in production.
const maxBatch = 1 << 16

// logged frames rec into a WAL stream and reads it back.
func logged(t *testing.T, rec []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// checkRecord round-trips one batch through a record and a WAL stream and
// checks the widths byte and the record's exact length.
func checkRecord[T gb.Number](t *testing.T, name string, rows, cols []gb.Index, vals []T, c gb.Codec[T], widths byte) {
	t.Helper()
	rec := logged(t, AppendBatchRecord(nil, rows, cols, vals, c.Put))
	n := len(rows)
	k := len(binary.AppendUvarint(nil, uint64(n)))
	if rec[k] != widths {
		t.Fatalf("%s: widths byte %#02x, want %#02x", name, rec[k], widths)
	}
	if want := k + 1 + n<<(widths&3) + n<<(widths>>2&3) + n<<(widths>>4&3); len(rec) != want {
		t.Fatalf("%s: record of %d bytes, want %d", name, len(rec), want)
	}
	gr, gc, gv, err := DecodeBatchRecord(rec, c.Get)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if len(gr) != n || !slices.Equal(gr, rows) || !slices.Equal(gc, cols) {
		t.Fatalf("%s: indices do not round-trip", name)
	}
	for i := range vals {
		if c.Put(gv[i]) != c.Put(vals[i]) {
			t.Fatalf("%s: value %d = %v, want %v", name, i, gv[i], vals[i])
		}
	}
}

// TestBatchRecordWidths covers every width of every group: each group
// takes the smallest of 1, 2, 4 or 8 bytes that holds its largest word.
func TestBatchRecordWidths(t *testing.T) {
	tops := []uint64{0xff, 0xffff, 0xffffffff, 1 << 32, math.MaxUint64}
	lw := []byte{0, 1, 2, 3, 3}
	u64 := gb.Uint64Codec[uint64]()
	for i, top := range tops {
		for _, g := range []int{0, 1, 2} { // the group that holds top
			groups := [][]uint64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
			groups[g][1] = top
			checkRecord(t, "uint64", groups[0], groups[1], groups[2], u64, lw[i]<<(2*g))
		}
	}
	// Signed and float values: a negative int64 and a typical float64
	// fill all 8 bytes; a zero float fits in one.
	idx := []uint64{1 << 20, 1<<32 - 1}
	checkRecord(t, "int64", idx, idx, []int64{-1, 5}, gb.Int64Codec[int64](), 2|2<<2|3<<4)
	checkRecord(t, "float64", idx, idx, []float64{1.5, -0.25}, gb.Float64Codec[float64](), 2|2<<2|3<<4)
	checkRecord(t, "float64-zero", idx, idx, []float64{0, 0}, gb.Float64Codec[float64](), 2|2<<2)
	// An empty batch is its count and a zero widths byte.
	if rec := AppendBatchRecord[uint64](nil, nil, nil, nil, u64.Put); !bytes.Equal(rec, []byte{0, 0}) {
		t.Fatalf("empty record = %x, want 0000", rec)
	}
	checkRecord(t, "empty", nil, nil, []uint64{}, u64, 0)
	// A full frame of IPv4-sized indices and unit weights: 9 bytes per entry.
	rows, cols, vals := make([]uint64, maxBatch), make([]uint64, maxBatch), make([]uint64, maxBatch)
	for i := range rows {
		rows[i], cols[i], vals[i] = uint64(i)*65537, math.MaxUint32-uint64(i), 1
	}
	checkRecord(t, "max-batch", rows, cols, vals, u64, 2|2<<2)
}

// badRecord is a hostile record and the error it must be refused with.
type badRecord struct {
	name string
	rec  []byte
	want error
}

// badRecords returns hostile variants of a valid record.
func badRecords() []badRecord {
	rows, cols, vals := []uint64{1, 1 << 40, 3}, []uint64{300, 5, 6}, []uint64{1, 2, math.MaxUint64}
	good := AppendBatchRecord(nil, rows, cols, vals, identity)
	var out []badRecord
	// good is count (1 byte) ‖ widths ‖ 3 × (8 + 2 + 8) bytes.
	for cut := 0; cut < len(good); cut++ {
		want := errTruncatedField
		switch {
		case cut == 0:
			want = errBadBatchLen
		case cut >= 2 && cut < 2+9: // the body cannot hold three 3-byte entries
			want = errBatchTooLong
		}
		out = append(out, badRecord{"truncated", good[:cut], want})
	}
	one := append([]byte{4}, good[1:]...) // one entry more than the body holds
	out = append(out,
		badRecord{"count+1", one, errTruncatedField},
		badRecord{"count-beyond-body", append(binary.AppendUvarint(nil, uint64(len(good))), good[1:]...), errBatchTooLong},
		badRecord{"trailing", append(slices.Clone(good), 0), errTrailingBytes},
	)
	for _, bit := range []byte{0x40, 0x80} {
		rec := slices.Clone(good)
		rec[1] |= bit
		out = append(out, badRecord{"reserved-width-bit", rec, errBadWidths})
	}
	return out
}

// TestBatchRecordRefusals pins that every hostile record is refused with
// its typed error before any scratch grows: the refusal allocates nothing
// even into empty scratch.
func TestBatchRecordRefusals(t *testing.T) {
	for _, tc := range badRecords() {
		_, _, _, err := DecodeBatchRecord(tc.rec, identity)
		if !errors.Is(err, tc.want) || !errors.Is(err, gb.ErrInvalidValue) {
			t.Fatalf("%s (%x): err = %v, want %v", tc.name, tc.rec, err, tc.want)
		}
		allocs := testing.AllocsPerRun(20, func() {
			DecodeBatchRecordInto(tc.rec, nil, nil, []uint64(nil), identity)
		})
		if allocs != 0 {
			t.Fatalf("%s: refusal allocates %.1f/op, budget is 0", tc.name, allocs)
		}
	}
}

func identity(v uint64) uint64 { return v }

// FuzzDecodeBatchRecord feeds hostile bytes to the record decoder: it
// must never panic, never grow scratch past the count the record's length
// can hold, and never allocate when it refuses; whatever it decodes must
// re-encode and decode back to the same batch.
func FuzzDecodeBatchRecord(f *testing.F) {
	f.Add(AppendBatchRecord(nil, []uint64{1, 1 << 40}, []uint64{2, 300}, []uint64{1, 1}, identity))
	f.Add(AppendBatchRecord(nil, []uint64{7}, []uint64{70000}, []uint64{math.MaxUint64}, identity))
	f.Add(AppendBatchRecord(nil, nil, nil, []uint64(nil), identity))
	for _, tc := range badRecords() {
		f.Add(tc.rec)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		rows, cols, vals, err := DecodeBatchRecordInto(rec, nil, nil, []uint64(nil), identity)
		if err != nil {
			if !errors.Is(err, gb.ErrInvalidValue) {
				t.Fatalf("untyped error %v", err)
			}
			if a := testing.AllocsPerRun(1, func() {
				DecodeBatchRecordInto(rec, nil, nil, []uint64(nil), identity)
			}); a != 0 {
				t.Fatalf("refusal allocates %.1f", a)
			}
			return
		}
		n := len(rows)
		if len(cols) != n || len(vals) != n || cap(rows) > len(rec)/3 || cap(vals) > len(rec)/3 {
			t.Fatalf("%d entries (cap %d) from a %d-byte record", n, cap(rows), len(rec))
		}
		r2, c2, v2, err := DecodeBatchRecord(AppendBatchRecord(nil, rows, cols, vals, identity), identity)
		if err != nil || !slices.Equal(r2, rows) || !slices.Equal(c2, cols) || !slices.Equal(v2, vals) {
			t.Fatalf("decode(encode(batch)) != batch (err %v)", err)
		}
	})
}
