package shard

import (
	"os"
	"path/filepath"
	"testing"

	"hhgb/internal/gb"
	"hhgb/internal/hier"
)

// Kill-point tests for the exactly-once session state: every crash window
// must recover a session table consistent with the recovered matrix —
// never ahead of it (that would silently drop a retransmitted frame whose
// entries died with the crash) — and a full retransmission of the stream
// into the recovered group must converge to the reference, duplicates
// dropped, gaps refilled.

// ktSessApply streams the given batch indices as session frames: batch i
// rides seq i+1 under session "sess-kt".
func ktSessApply(t *testing.T, g *Group[uint64], batches []int) {
	t.Helper()
	for _, i := range batches {
		r, c, v := ktBatch(i)
		dup, err := g.UpdateSession("sess-kt", uint64(i)+1, r, c, v, nil)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if dup {
			t.Fatalf("batch %d unexpectedly deduplicated on first send", i)
		}
	}
}

// ktSessReplay retransmits the given batches and reports how many the
// group frontier dropped as duplicates.
func ktSessReplay(t *testing.T, g *Group[uint64], batches []int) (dups int) {
	t.Helper()
	for _, i := range batches {
		r, c, v := ktBatch(i)
		dup, err := g.UpdateSession("sess-kt", uint64(i)+1, r, c, v, nil)
		if err != nil {
			t.Fatalf("replay batch %d: %v", i, err)
		}
		if dup {
			dups++
		}
	}
	return dups
}

func TestSessionKillPointRecovery(t *testing.T) {
	const noSync = 1 << 30
	cases := []struct {
		name string
		// run drives g to the crash point and returns the crash-state copy.
		run        func(t *testing.T, g *Group[uint64], dir string) string
		want       []int  // batches the recovered state must equal
		wantResume uint64 // recovered ResumeSeq("sess-kt")
		replay     []int  // full-stream retransmit into the recovered group
		wantDups   int    // how many of the replayed frames must dedup
		final      []int  // state after the retransmit
	}{
		{
			// The window between a frame's WAL append and its durable
			// table commit: seqs 11..15 are logged by the workers but the
			// crash hits before any barrier syncs them, so both their
			// entries AND their session seqs must vanish together.
			name: "wal-append-before-table-commit",
			run: func(t *testing.T, g *Group[uint64], dir string) string {
				ktSessApply(t, g, seq(0, 10))
				if err := g.Flush(); err != nil {
					t.Fatal(err)
				}
				ktSessApply(t, g, seq(10, 15))
				if err := g.Err(); err != nil { // drain: logged, not synced
					t.Fatal(err)
				}
				return copyDir(t, dir)
			},
			want:       seq(0, 10),
			wantResume: 10,
			replay:     seq(0, 15),
			wantDups:   10,
			final:      seq(0, 15),
		},
		{
			// Crash between the checkpoint's manifest commit and its WAL
			// truncation: the new manifest's session table governs, and
			// the stale pre-checkpoint segments (which still carry session
			// headers for seqs 1..10) must not double-apply or double-
			// advance anything.
			name: "checkpoint-manifest-before-truncation",
			run: func(t *testing.T, g *Group[uint64], dir string) string {
				ktSessApply(t, g, seq(0, 10))
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
			want:       seq(0, 10),
			wantResume: 10,
			replay:     seq(0, 12),
			wantDups:   10,
			final:      seq(0, 12),
		},
		{
			// Snapshot-only recovery: after a clean checkpoint the WAL is
			// truncated, so the session table survives only if the
			// manifest checkpointed it — there are no session headers left
			// to replay.
			name: "snapshot-only-after-checkpoint",
			run: func(t *testing.T, g *Group[uint64], dir string) string {
				ktSessApply(t, g, seq(0, 10))
				if err := g.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				return copyDir(t, dir)
			},
			want:       seq(0, 10),
			wantResume: 10,
			replay:     seq(0, 10),
			wantDups:   10,
			final:      seq(0, 10),
		},
		{
			// A crash mid-append of a frame whose entries span every
			// shard: the log ends inside that frame's record. None of its
			// entries may survive on any shard, and the resume frontier
			// must exclude its seq, so the retransmission applies it once.
			name: "torn-inside-multi-shard-frame",
			run: func(t *testing.T, g *Group[uint64], dir string) string {
				ktSessApply(t, g, seq(0, 10))
				if err := g.Flush(); err != nil {
					t.Fatal(err)
				}
				seg := filepath.Join(dir, walName(0))
				before := fileSize(t, seg)
				r, c, _ := ktBatch(10)
				touched := map[int]bool{}
				for k := range r {
					touched[g.shardOf(r[k], c[k])] = true
				}
				if len(touched) != 3 {
					t.Fatalf("batch 10 touches %d shards, want 3", len(touched))
				}
				ktSessApply(t, g, []int{10})
				if err := g.Flush(); err != nil {
					t.Fatal(err)
				}
				after := fileSize(t, seg)
				crash := copyDir(t, dir)
				if err := os.Truncate(filepath.Join(crash, walName(0)), (before+after)/2); err != nil {
					t.Fatal(err)
				}
				return crash
			},
			want:       seq(0, 10),
			wantResume: 10,
			replay:     seq(0, 11),
			wantDups:   10,
			final:      seq(0, 11),
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
			if got := rec.ResumeSeq("sess-kt"); got != tc.wantResume {
				t.Fatalf("recovered ResumeSeq = %d, want %d", got, tc.wantResume)
			}
			assertSameState(t, rec, ktRef(t, tc.want))
			if dups := ktSessReplay(t, rec, tc.replay); dups != tc.wantDups {
				t.Fatalf("replay deduplicated %d frames, want %d", dups, tc.wantDups)
			}
			if err := rec.Flush(); err != nil {
				t.Fatal(err)
			}
			assertSameState(t, rec, ktRef(t, tc.final))
		})
	}
}

// buildSessTornDir mirrors buildTornDir under the session protocol: a
// single-shard group syncs ten one-frame session batches (seqs 1..10)
// and the copy's segment is truncated one byte into the final frame.
func buildSessTornDir(t *testing.T) string {
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
		ktSessApply(t, g, []int{i})
		if err := g.Err(); err != nil { // drain so each batch is one frame
			t.Fatal(err)
		}
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	crash := copyDir(t, dir)
	torn := 0
	for _, e := range mustReadDir(t, crash) {
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

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func mustReadDir(t *testing.T, dir string) []os.DirEntry {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ents
}

// TestSessionTornTailRecovery pins the invariant that a torn final record
// drops its session seq along with its entries: the recovered frontier is
// 9, so the client's retransmit of seq 10 applies (not dedups) and the
// stream completes without a hole.
func TestSessionTornTailRecovery(t *testing.T) {
	crash := buildSessTornDir(t)
	rec, st := recoverCopy(t, crash)
	if st.TornTails != 1 || st.ReplayedBatches != 9 {
		t.Fatalf("TornTails=%d ReplayedBatches=%d, want 1/9", st.TornTails, st.ReplayedBatches)
	}
	if got := rec.ResumeSeq("sess-kt"); got != 9 {
		t.Fatalf("recovered ResumeSeq = %d, want 9 (the torn seq 10 must not survive)", got)
	}
	assertSameState(t, rec, ktRef(t, seq(0, 9)))
	// The frame the tear destroyed is retransmitted: seq 9 dedups, the
	// torn seq 10 must apply.
	if dups := ktSessReplay(t, rec, seq(8, 10)); dups != 1 {
		t.Fatalf("replay deduplicated %d frames, want 1 (seq 9 only)", dups)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, rec, ktRef(t, seq(0, 10)))
}

// TestSessionFrontierExactAfterFlush: the log is totally ordered and
// holds each frame whole, so after a Flush the recovered frontier is
// exact even for a frame whose entries all hash to one shard of three:
// ResumeSeq and MintSeq are both 11, and the frame's retransmission is a
// duplicate that must not double-count.
func TestSessionFrontierExactAfterFlush(t *testing.T) {
	const noSync = 1 << 30
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
	ktSessApply(t, g, seq(0, 10))
	// Seq 11: a single-cell frame — it reaches exactly one shard.
	one := []gb.Index{42}
	if dup, err := g.UpdateSession("sess-kt", 11, one, one, []uint64{5}, nil); err != nil || dup {
		t.Fatalf("seq 11: dup=%v err=%v", dup, err)
	}
	if err := g.Flush(); err != nil { // everything above is fully durable
		t.Fatal(err)
	}
	rec, _ := recoverCopy(t, copyDir(t, dir))
	if got := rec.ResumeSeq("sess-kt"); got != 11 {
		t.Fatalf("recovered ResumeSeq = %d, want 11 (seq 11 was flushed)", got)
	}
	if got := rec.MintSeq("sess-kt"); got != 11 {
		t.Fatalf("recovered MintSeq = %d, want 11", got)
	}
	if dup, err := rec.UpdateSession("sess-kt", 11, one, one, []uint64{5}, nil); err != nil || !dup {
		t.Fatalf("retransmit of seq 11: dup=%v err=%v, want a duplicate", dup, err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	ref := ktRef(t, seq(0, 10))
	if err := ref.Update(one, one, []uint64{5}); err != nil {
		t.Fatal(err)
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, rec, ref)
}
