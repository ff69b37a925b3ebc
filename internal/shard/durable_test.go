package shard

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hhgb/internal/gb"
	"hhgb/internal/hier"
)

// The kill-point tests simulate a crash by copying the durability
// directory at a chosen instant (the exact on-disk state a kill -9 would
// leave: unsynced bufio tails lost, synced frames intact) and recovering
// from the copy while the original group keeps running. Each crash window
// must recover to exactly the durable prefix of the stream — same merged
// matrix, same counts, same pushdown answers as an in-memory reference fed
// that prefix.

const ktDim = gb.Index(1) << 16

var ktCuts = []int{8, 64}

// ktBatch returns deterministic batch i: 64 entries with repeated cells so
// accumulation (not just insertion) is exercised.
func ktBatch(i int) (rows, cols []gb.Index, vals []uint64) {
	const n = 64
	x := uint64(i)*0x9e3779b97f4a7c15 + 1
	for k := 0; k < n; k++ {
		x ^= x >> 12
		x *= 0x2545f4914f6cdd1d
		x ^= x << 25
		rows = append(rows, gb.Index(x>>17)%ktDim)
		cols = append(cols, gb.Index(x>>31)%ktDim)
		vals = append(vals, x%7+1)
	}
	return rows, cols, vals
}

// ktApply streams the given batch indices into g.
func ktApply(t *testing.T, g *Group[uint64], batches []int) {
	t.Helper()
	for _, i := range batches {
		r, c, v := ktBatch(i)
		if err := g.Update(r, c, v); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
}

// ktRef builds the in-memory reference state: the same batches through a
// plain non-durable group.
func ktRef(t *testing.T, batches []int) *Group[uint64] {
	t.Helper()
	g, err := NewGroup[uint64](ktDim, ktDim, Config{Shards: 3, Hier: hier.Config{Cuts: ktCuts}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	ktApply(t, g, batches)
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	return g
}

// assertSameState proves got and want hold the identical logical matrix:
// merged Query bit-equal, plus the pushdown answers a recovered service
// would actually serve (counts, totals, degree vectors, top-k, lookups).
func assertSameState(t *testing.T, got, want *Group[uint64]) {
	t.Helper()
	qg, err := got.Query()
	if err != nil {
		t.Fatal(err)
	}
	qw, err := want.Query()
	if err != nil {
		t.Fatal(err)
	}
	if !gb.Equal(qg, qw) {
		t.Fatalf("recovered matrix differs: %d vs %d entries", qg.NVals(), qw.NVals())
	}
	ng, err := got.NVals()
	if err != nil {
		t.Fatal(err)
	}
	nw, _ := want.NVals()
	if ng != nw {
		t.Fatalf("NVals %d != %d", ng, nw)
	}
	tg, err := got.Total()
	if err != nil {
		t.Fatal(err)
	}
	tw, _ := want.Total()
	if tg != tw {
		t.Fatalf("Total %d != %d", tg, tw)
	}
	rg, err := got.RowSums()
	if err != nil {
		t.Fatal(err)
	}
	rw, _ := want.RowSums()
	if !gb.VecEqual(rg, rw) {
		t.Fatal("RowSums differ")
	}
	kg, err := got.TopRows(5)
	if err != nil {
		t.Fatal(err)
	}
	kw, _ := want.TopRows(5)
	if len(kg) != len(kw) {
		t.Fatalf("TopRows lengths %d != %d", len(kg), len(kw))
	}
	for i := range kg {
		if kg[i] != kw[i] {
			t.Fatalf("TopRows[%d] = %+v != %+v", i, kg[i], kw[i])
		}
	}
	checked := 0
	qw.Iterate(func(i, j gb.Index, v uint64) bool {
		gv, ok, err := got.Lookup(i, j)
		if err != nil || !ok || gv != v {
			t.Fatalf("Lookup(%d,%d) = %d,%v,%v; want %d", i, j, gv, ok, err, v)
		}
		checked++
		return checked < 8
	})
}

// copyDir snapshots the on-disk state of a durability directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func recoverCopy(t *testing.T, dir string) (*Group[uint64], RecoverStats) {
	t.Helper()
	g, st, err := RecoverGroup[uint64](Config{Durable: Durability{Dir: dir}})
	if err != nil {
		t.Fatalf("RecoverGroup: %v", err)
	}
	t.Cleanup(func() { g.Close() })
	return g, st
}

func seq(lo, hi int) []int {
	var out []int
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

func TestKillPointRecovery(t *testing.T) {
	// noSync disables the batch-count group commit so only explicit
	// barriers (Flush, Checkpoint) make anything durable — every crash
	// window below is then exactly controlled.
	const noSync = 1 << 30
	cases := []struct {
		name string
		// run drives g to the crash point and returns the crash-state
		// directory copy.
		run  func(t *testing.T, g *Group[uint64], dir string) string
		want []int // batch indices the recovered state must equal
	}{
		{
			name: "before-any-sync",
			// Batches accepted, logged by the workers (Err is a drain
			// barrier), never synced: a crash loses all of them.
			run: func(t *testing.T, g *Group[uint64], dir string) string {
				ktApply(t, g, seq(0, 10))
				if err := g.Err(); err != nil {
					t.Fatal(err)
				}
				return copyDir(t, dir)
			},
			want: nil,
		},
		{
			name: "after-sync-before-checkpoint",
			// Flush is the group-commit point: everything before it must
			// survive via WAL replay alone (no snapshot exists yet).
			run: func(t *testing.T, g *Group[uint64], dir string) string {
				ktApply(t, g, seq(0, 10))
				if err := g.Flush(); err != nil {
					t.Fatal(err)
				}
				return copyDir(t, dir)
			},
			want: seq(0, 10),
		},
		{
			name: "synced-then-unsynced-tail",
			// The synced prefix survives; the accepted-but-unsynced tail
			// is lost — the group-commit contract.
			run: func(t *testing.T, g *Group[uint64], dir string) string {
				ktApply(t, g, seq(0, 10))
				if err := g.Flush(); err != nil {
					t.Fatal(err)
				}
				ktApply(t, g, seq(10, 20))
				if err := g.Err(); err != nil {
					t.Fatal(err)
				}
				return copyDir(t, dir)
			},
			want: seq(0, 10),
		},
		{
			name: "after-checkpoint",
			// Snapshot-only restore: logs were truncated at checkpoint,
			// the unsynced tail after it is lost.
			run: func(t *testing.T, g *Group[uint64], dir string) string {
				ktApply(t, g, seq(0, 10))
				if err := g.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				ktApply(t, g, seq(10, 20))
				if err := g.Err(); err != nil {
					t.Fatal(err)
				}
				return copyDir(t, dir)
			},
			want: seq(0, 10),
		},
		{
			name: "checkpoint-then-synced-tail",
			// Snapshot plus WAL-tail replay compose.
			run: func(t *testing.T, g *Group[uint64], dir string) string {
				ktApply(t, g, seq(0, 10))
				if err := g.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				ktApply(t, g, seq(10, 20))
				if err := g.Flush(); err != nil {
					t.Fatal(err)
				}
				return copyDir(t, dir)
			},
			want: seq(0, 20),
		},
		{
			name: "mid-checkpoint-before-manifest",
			// Crash after every shard snapshotted and rotated but before
			// the manifest commit: the OLD manifest still governs, and
			// restore goes snapshot(old) + full old segments + empty new
			// segments — the same state, reached the long way.
			run: func(t *testing.T, g *Group[uint64], dir string) string {
				ktApply(t, g, seq(0, 10))
				var copy string
				g.ckptHook = func(stage string) {
					if stage == "snapshots" && copy == "" {
						copy = copyDir(t, dir)
					}
				}
				if err := g.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				g.ckptHook = nil
				if copy == "" {
					t.Fatal("snapshots hook never fired")
				}
				return copy
			},
			want: seq(0, 10),
		},
		{
			name: "mid-checkpoint-after-manifest-before-prune",
			// Crash between manifest commit and prune: the NEW manifest
			// governs; stale old-epoch files must be ignored.
			run: func(t *testing.T, g *Group[uint64], dir string) string {
				ktApply(t, g, seq(0, 10))
				var copy string
				g.ckptHook = func(stage string) {
					if stage == "manifest" && copy == "" {
						copy = copyDir(t, dir)
					}
				}
				if err := g.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				g.ckptHook = nil
				if copy == "" {
					t.Fatal("manifest hook never fired")
				}
				return copy
			},
			want: seq(0, 10),
		},
		{
			name: "after-close",
			// Close takes a final checkpoint; restart is snapshot-only.
			run: func(t *testing.T, g *Group[uint64], dir string) string {
				ktApply(t, g, seq(0, 10))
				if err := g.Close(); err != nil {
					t.Fatal(err)
				}
				// A clean shutdown leaves only manifest + snapshots:
				// the final checkpoint does not rotate, so no empty
				// segments accumulate across restarts.
				ents, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range ents {
					if _, isWAL, ok := parseDataFile(e.Name()); ok && isWAL {
						t.Fatalf("stray WAL segment after Close: %s", e.Name())
					}
				}
				return copyDir(t, dir)
			},
			want: seq(0, 10),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			g, err := NewGroup[uint64](ktDim, ktDim, Config{
				Shards:  3,
				Hier:    hier.Config{Cuts: ktCuts},
				Durable: Durability{Dir: dir, SyncEvery: noSync},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			crashDir := tc.run(t, g, dir)
			rec, _ := recoverCopy(t, crashDir)
			assertSameState(t, rec, ktRef(t, tc.want))
		})
	}
}

// buildTornDir produces the crash-state directory of a single-shard group
// that synced ten one-batch frames (batches 0..9) and then died mid-append:
// the copy's segment is truncated one byte into its final frame, so nine
// intact frames remain.
func buildTornDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	g, err := NewGroup[uint64](ktDim, ktDim, Config{
		Shards:  1,
		Hier:    hier.Config{Cuts: ktCuts},
		Durable: Durability{Dir: dir, SyncEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	for i := 0; i < 10; i++ {
		ktApply(t, g, []int{i})
		if err := g.Err(); err != nil { // drain so each batch is one frame
			t.Fatal(err)
		}
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	crash := copyDir(t, dir)

	// Tear the final frame in the copy: chop one byte off the segment.
	ents, err := os.ReadDir(crash)
	if err != nil {
		t.Fatal(err)
	}
	torn := 0
	for _, e := range ents {
		if _, isWAL, ok := parseDataFile(e.Name()); ok && isWAL {
			p := filepath.Join(crash, e.Name())
			st, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() == 0 {
				continue
			}
			if err := os.Truncate(p, st.Size()-1); err != nil {
				t.Fatal(err)
			}
			torn++
		}
	}
	if torn != 1 {
		t.Fatalf("tore %d segments, want 1", torn)
	}
	return crash
}

func TestRecoveryToleratesTornFinalFrame(t *testing.T) {
	crash := buildTornDir(t)
	rec, st := recoverCopy(t, crash)
	if st.TornTails != 1 {
		t.Fatalf("TornTails = %d, want 1", st.TornTails)
	}
	if st.ReplayedBatches != 9 {
		t.Fatalf("ReplayedBatches = %d, want 9 (the torn 10th is dropped)", st.ReplayedBatches)
	}
	assertSameState(t, rec, ktRef(t, seq(0, 9)))
}

// TestRecoverySurvivesCrashMidRecovery pins the recovery commit order:
// a recovery attempt that dies after writing its fresh-epoch snapshots
// but before committing the manifest must leave the directory exactly as
// recoverable as before — in particular, the shard's torn segment must
// still count as its NEWEST segment (tolerated tail), which is why
// recovery creates its new log segments only after the manifest commits.
func TestRecoverySurvivesCrashMidRecovery(t *testing.T) {
	crash := buildTornDir(t)
	man, err := readManifest(crash)
	if err != nil {
		t.Fatal(err)
	}
	// The stray artifact of the dead attempt: a higher-epoch snapshot,
	// old manifest untouched, no higher-epoch segments.
	m, err := hier.New[uint64](ktDim, ktDim, hier.Config{Cuts: ktCuts})
	if err != nil {
		t.Fatal(err)
	}
	stray := snapName(0, man.Epoch+1)
	if err := writeSnapshot(filepath.Join(crash, stray), m, defaultCodec[uint64]()); err != nil {
		t.Fatal(err)
	}
	rec, st := recoverCopy(t, crash)
	if st.TornTails != 1 || st.ReplayedBatches != 9 {
		t.Fatalf("TornTails=%d ReplayedBatches=%d, want 1/9", st.TornTails, st.ReplayedBatches)
	}
	assertSameState(t, rec, ktRef(t, seq(0, 9)))
	if _, err := os.Stat(filepath.Join(crash, stray)); !os.IsNotExist(err) {
		t.Fatalf("stray snapshot not pruned: %v", err)
	}
}

func TestRecoverResumeAndReRecover(t *testing.T) {
	dir := t.TempDir()
	g, err := NewGroup[uint64](ktDim, ktDim, Config{
		Shards:  3,
		Hier:    hier.Config{Cuts: ktCuts},
		Durable: Durability{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	ktApply(t, g, seq(0, 10))
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	// "Crash" (abandon without Close) and recover in place: the recovered
	// group must accept further ingest, checkpoint, and survive a second
	// recovery with the full stream intact.
	crash := copyDir(t, dir)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	r1, st := recoverCopy(t, crash)
	if st.ReplayedBatches == 0 {
		t.Fatal("expected WAL replay (no checkpoint was taken)")
	}
	ktApply(t, r1, seq(10, 20))
	if err := r1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r2, st2 := recoverCopy(t, copyDir(t, crash))
	if st2.ReplayedBatches != 0 {
		t.Fatalf("post-checkpoint recovery replayed %d batches, want 0", st2.ReplayedBatches)
	}
	assertSameState(t, r2, ktRef(t, seq(0, 20)))
}

func TestDurabilityLifecycleErrors(t *testing.T) {
	dir := t.TempDir()
	g, err := NewGroup[uint64](ktDim, ktDim, Config{
		Shards: 2, Hier: hier.Config{Cuts: ktCuts},
		Durable: Durability{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A second group on the same directory must refuse, not shadow.
	if _, err := NewGroup[uint64](ktDim, ktDim, Config{Durable: Durability{Dir: dir}}); err == nil ||
		!strings.Contains(err.Error(), "RecoverGroup") {
		t.Fatalf("NewGroup on a live durable dir: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close = %v, want ErrClosed", err)
	}

	plain, err := NewGroup[uint64](ktDim, ktDim, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if err := plain.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Checkpoint without durability = %v, want ErrNotDurable", err)
	}
	if _, _, err := RecoverGroup[uint64](Config{}); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("RecoverGroup without dir = %v, want ErrNotDurable", err)
	}
	if _, _, err := RecoverGroup[uint64](Config{Durable: Durability{Dir: t.TempDir()}}); err == nil {
		t.Fatal("RecoverGroup on an empty dir must fail (no manifest)")
	}
}

// TestDirLockInProcessOwner pins the heldDirs registry: while a live group
// in this process owns a directory, a second claim is refused; Close
// releases the ownership.
func TestDirLockInProcessOwner(t *testing.T) {
	dir := t.TempDir()
	g, err := NewGroup[uint64](ktDim, ktDim, Config{
		Shards: 1, Hier: hier.Config{Cuts: ktCuts},
		Durable: Durability{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverGroup[uint64](Config{Durable: Durability{Dir: dir}}); err == nil ||
		!strings.Contains(err.Error(), "live group in this process") {
		t.Fatalf("RecoverGroup while a live in-process group owns the dir: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	r, _, err := RecoverGroup[uint64](Config{Durable: Durability{Dir: dir}})
	if err != nil {
		t.Fatalf("RecoverGroup after Close: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRefusesOlderManifest: a directory written before the one
// group log (manifest version 3, per-shard segment chains) is refused, not
// misread, with a typed error that names both versions.
func TestRecoverRefusesOlderManifest(t *testing.T) {
	dir := t.TempDir()
	g, err := NewGroup[uint64](ktDim, ktDim, Config{
		Shards: 1, Hier: hier.Config{Cuts: ktCuts},
		Durable: Durability{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Update([]gb.Index{1}, []gb.Index{2}, []uint64{3}); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(data), `"version": 4,`, `"version": 3,`, 1)
	if old == string(data) {
		t.Fatalf("manifest has no version 4 field:\n%s", data)
	}
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = RecoverGroup[uint64](Config{Durable: Durability{Dir: dir}})
	if !errors.Is(err, gb.ErrInvalidValue) || !strings.Contains(err.Error(), "manifest version 3, want 4") {
		t.Fatalf("RecoverGroup of a version 3 directory = %v, want ErrInvalidValue naming versions 3 and 4", err)
	}
}

// TestLogAppendFailurePoisonsGroup closes the live log segment underneath
// a durable group: the next append's group commit fails, that ingest call
// returns the error, and the error poisons the whole group — every later
// ingest call, Flush, Err, Checkpoint, and Close returns it. What was
// flushed before the failure still recovers.
func TestLogAppendFailurePoisonsGroup(t *testing.T) {
	dir := t.TempDir()
	g, err := NewGroup[uint64](ktDim, ktDim, Config{
		Shards:  3,
		Hier:    hier.Config{Cuts: ktCuts},
		Durable: Durability{Dir: dir, SyncEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ktApply(t, g, seq(0, 5))
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	a, err := g.NewAppender()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.log.f.Close(); err != nil {
		t.Fatal(err)
	}
	r, c, v := ktBatch(5)
	poison := g.Update(r, c, v)
	if poison == nil {
		t.Fatal("Update over a closed log segment succeeded")
	}
	_, sessErr := g.UpdateSession("sess-poison", 1, r, c, v, nil)
	for name, err := range map[string]error{
		"Update":          g.Update(r, c, v),
		"UpdateSession":   sessErr,
		"Appender.Append": a.Append(r, c, v),
		"Flush":           g.Flush(),
		"Err":             g.Err(),
		"Checkpoint":      g.Checkpoint(),
		"Close":           g.Close(),
	} {
		if !errors.Is(err, poison) {
			t.Errorf("%s after the failed append = %v, want the poison %v", name, err, poison)
		}
	}
	rec, _ := recoverCopy(t, dir)
	assertSameState(t, rec, ktRef(t, seq(0, 5)))
}

// TestCheckpointCutUnderRace runs sessioned, plain, and appender producers
// against back-to-back checkpoints on a durable 3-shard group. Each cut must
// put every batch whole in exactly one of its snapshots and the rotated-in
// segment, and the session table at the cut must match: after a final
// Flush, a recovered copy equals the reference fed every batch once, and
// every session frame is a duplicate there.
func TestCheckpointCutUnderRace(t *testing.T) {
	const perProducer = 40
	dir := t.TempDir()
	g, err := NewGroup[uint64](ktDim, ktDim, Config{
		Shards:  3,
		Handoff: 96,
		Hier:    hier.Config{Cuts: ktCuts},
		Durable: Durability{Dir: dir, SyncEvery: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	a, err := g.NewAppender()
	if err != nil {
		t.Fatal(err)
	}
	// Every eighth batch a producer waits for one more checkpoint to
	// finish, so cuts keep landing mid-stream however fast ingest is.
	var done atomic.Int64
	var producers sync.WaitGroup
	produce := func(first int, send func(i int) error) {
		producers.Add(1)
		go func() {
			defer producers.Done()
			for i := first; i < first+perProducer; i++ {
				if i%8 == 0 {
					for n := done.Load(); done.Load() == n; {
						runtime.Gosched()
					}
				}
				if err := send(i); err != nil {
					t.Errorf("batch %d: %v", i, err)
					return
				}
			}
		}()
	}
	produce(0, func(i int) error {
		r, c, v := ktBatch(i)
		_, err := g.UpdateSession("sess-kt", uint64(i)+1, r, c, v, nil)
		return err
	})
	produce(100, func(i int) error {
		r, c, v := ktBatch(i)
		return g.Update(r, c, v)
	})
	produce(200, func(i int) error {
		r, c, v := ktBatch(i)
		return a.Append(r, c, v)
	})
	stop := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := g.Checkpoint(); err != nil {
				t.Errorf("Checkpoint: %v", err)
			}
			done.Add(1)
		}
	}()
	producers.Wait()
	close(stop)
	<-stopped
	t.Logf("%d checkpoints raced the producers", done.Load())
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	rec, _ := recoverCopy(t, copyDir(t, dir))
	all := append(append(seq(0, perProducer), seq(100, 100+perProducer)...), seq(200, 200+perProducer)...)
	assertSameState(t, rec, ktRef(t, all))
	if r, m := rec.ResumeSeq("sess-kt"), rec.MintSeq("sess-kt"); r != perProducer || m != perProducer {
		t.Fatalf("recovered ResumeSeq/MintSeq = %d/%d, want %d/%d", r, m, perProducer, perProducer)
	}
	if dups := ktSessReplay(t, rec, seq(0, perProducer)); dups != perProducer {
		t.Fatalf("retransmit deduplicated %d frames, want %d", dups, perProducer)
	}
}
