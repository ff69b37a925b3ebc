package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestAppendReplayRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var want [][]byte
	for k := 0; k < 100; k++ {
		rec := []byte(fmt.Sprintf("record-%d", k))
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if w.Syncs() != 1 {
		t.Fatalf("syncs=%d", w.Syncs())
	}
	if w.Bytes() <= 0 {
		t.Fatalf("bytes=%d", w.Bytes())
	}

	r := NewReader(&buf)
	for k := 0; ; k++ {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			if k != len(want) {
				t.Fatalf("replayed %d records, want %d", k, len(want))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec, want[k]) {
			t.Fatalf("record %d = %q, want %q", k, rec, want[k])
		}
	}
}

func TestEmptyRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append(nil); err != nil {
		t.Fatal(err)
	}
	_ = w.Sync()
	r := NewReader(&buf)
	rec, err := r.Next()
	if err != nil || len(rec) != 0 {
		t.Fatalf("empty record: %q, %v", rec, err)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Append([]byte("payload-to-corrupt"))
	_ = w.Sync()
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xff // flip a payload byte
	r := NewReader(bytes.NewReader(raw))
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestTruncatedLog(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Append([]byte("0123456789"))
	_ = w.Sync()
	raw := buf.Bytes()
	r := NewReader(bytes.NewReader(raw[:len(raw)-3]))
	if _, err := r.Next(); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestUnsyncedDataNotVisible(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Append([]byte("small")) // stays in the 64 KiB buffer until Sync
	if buf.Len() != 0 {
		t.Fatalf("record leaked before Sync: %d bytes", buf.Len())
	}
	_ = w.Sync()
	if buf.Len() == 0 {
		t.Fatal("Sync flushed nothing")
	}
}

// tornAt frames one record, then returns the log cut to n bytes — the
// on-disk state a crash can leave at each byte of an unsynced append.
func tornAt(t *testing.T, rec []byte, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if n > buf.Len() {
		t.Fatalf("cut %d beyond frame of %d bytes", n, buf.Len())
	}
	return buf.Bytes()[:n]
}

func TestCleanEOFVsTornFrame(t *testing.T) {
	rec := bytes.Repeat([]byte{0xab}, 300) // 2-byte length varint
	full := tornAt(t, rec, len(tornAt(t, rec, 0))+2+4+300)

	// A log ending exactly on a frame boundary is a clean EOF ...
	r := NewReader(bytes.NewReader(full))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("clean end: want io.EOF, got %v", err)
	}

	// ... while every strictly-partial prefix of a frame is torn: the
	// reader must say ErrCorrupt, never a clean EOF, never a bare read
	// error the replay loop can't classify.
	for cut := 1; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		_, err := r.Next()
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d of %d: want ErrCorrupt, got %v", cut, len(full), err)
		}
		if errors.Is(err, io.EOF) {
			t.Fatalf("cut at %d: torn frame misreported as EOF", cut)
		}
	}
}

func TestTornFrameAfterIntactFrames(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for k := 0; k < 5; k++ {
		if err := w.Append([]byte(fmt.Sprintf("intact-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	_ = w.Sync()
	raw := append([]byte(nil), buf.Bytes()...)
	raw = append(raw, 0x09, 0x00) // 9-byte frame announced, 1 byte present

	r := NewReader(bytes.NewReader(raw))
	for k := 0; k < 5; k++ {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("intact frame %d: %v", k, err)
		}
		if want := fmt.Sprintf("intact-%d", k); string(rec) != want {
			t.Fatalf("frame %d = %q, want %q", k, rec, want)
		}
	}
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn tail after intact frames: want ErrCorrupt, got %v", err)
	}
}

func TestAbsurdLengthIsCorrupt(t *testing.T) {
	// A bit-rotted length varint must not become a giant allocation.
	raw := binary.AppendUvarint(nil, uint64(MaxRecord)+1)
	raw = append(raw, 0, 0, 0, 0)
	r := NewReader(bytes.NewReader(raw))
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for absurd length, got %v", err)
	}
}

func TestFileSyncDurableAndRotate(t *testing.T) {
	dir := t.TempDir()
	p0 := filepath.Join(dir, "seg-0.log")
	l, err := Create(p0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(p0); err != nil || st.Size() == 0 {
		t.Fatalf("segment after Sync: size=%v err=%v", st, err)
	}

	p1 := filepath.Join(dir, "seg-1.log")
	l2, err := l.Rotate(p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	for i, p := range []string{p0, p1} {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		r := NewReader(f)
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		want := []string{"first", "second"}[i]
		if string(rec) != want {
			t.Fatalf("segment %d = %q, want %q", i, rec, want)
		}
		if _, err := r.Next(); !errors.Is(err, io.EOF) {
			t.Fatalf("segment %d: want clean EOF, got %v", i, err)
		}
		_ = f.Close()
	}
}

func TestAppendRejectsOversizedRecord(t *testing.T) {
	// Append must refuse what Next would have to discard as corruption,
	// so an fsync-confirmed record can never be silently dropped at
	// recovery. Nothing reaches the buffer: the cap check runs first.
	w := NewWriter(&bytes.Buffer{})
	rec := make([]byte, MaxRecord+1)
	if err := w.Append(rec); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("want ErrRecordTooLarge, got %v", err)
	}
	if w.Bytes() != 0 {
		t.Fatalf("oversized record counted: %d bytes", w.Bytes())
	}
}
