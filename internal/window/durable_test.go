package window

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hhgb/internal/gb"
	"hhgb/internal/shard"
)

// The windowed kill-point table extends the shard layer's crash-window
// audit (internal/shard/durable_test.go) one level up: a crash is
// simulated by copying the store root mid-stream — exactly the bytes a
// kill -9 would leave — and recovering from the copy while the original
// store keeps running. Each window's own shard-layer guarantees carry
// over per window; these tests pin the store-layer windows on top:
//
//	crash window                      recovered state
//	after Flush, windows active       every window live, content exact
//	after Seal, marker present        sealed windows final, no replay
//	after Seal, marker lost           re-sealed idempotently (Resealed>0)
//	rolled up, then crash             parent + rolled children both durable
//	roll-up merged, not checkpointed  parent discarded, children re-roll once
//	parent checkpointed, no marker    parent discarded, children re-roll once
//	parent checkpoint fails           parent never published, re-rolls later
//	after Close                       clean restart, active windows resume
//	accepted, never flushed           per-window durable prefix only
//	seal scheduled, marker and        window resumes active; its first
//	  manifest not written              frame's retransmission is a dup
//	seal marked, manifest not         window sealed, frontier moved past
//	  written                           it; the retransmission is a dup
//	Flush beside a queued seal        every frame Flush acked survives
//	seal queued, nothing synced       replay reopens nothing, refuses
//	                                    nothing: each frame lands once

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	var walk func(rel string)
	walk = func(rel string) {
		ents, err := os.ReadDir(filepath.Join(src, rel))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			r := filepath.Join(rel, e.Name())
			if e.IsDir() {
				if err := os.MkdirAll(filepath.Join(dst, r), 0o755); err != nil {
					t.Fatal(err)
				}
				walk(r)
				continue
			}
			data, err := os.ReadFile(filepath.Join(src, r))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, r), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	walk(".")
	return dst
}

func durableCfg(dir string) Config {
	return Config{
		Window:   time.Second,
		RollUps:  []int{4},
		Lateness: 1000 * time.Second,
		Shard: shard.Config{
			Shards:  2,
			Handoff: 16,
			Durable: shard.Durability{Dir: dir, SyncEvery: 1},
		},
	}
}

// seedDurable builds a durable store with 6 windows of known content:
// windows 0..3 sealed (and rolled into one 4s parent), 4..5 active and
// flushed. Entry weights are 10*w+1 at cell (w, w), one per window.
func seedDurable(t *testing.T, dir string) (*Store[uint64], []entry) {
	return seedDurableHooked(t, dir, nil)
}

// seedDurableHooked is seedDurable with a roll-up hook installed before
// the first seal.
func seedDurableHooked(t *testing.T, dir string, hook func(stage string)) (*Store[uint64], []entry) {
	t.Helper()
	s, err := New[uint64](dim, dim, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	s.rollUpHook = hook
	sec := int64(time.Second)
	var entries []entry
	for w := int64(0); w < 6; w++ {
		e := entry{ts: w*sec + 5, r: gb.Index(w), c: gb.Index(w), v: uint64(10*w + 1)}
		entries = append(entries, e)
		if err := s.Append(e.ts, []gb.Index{e.r}, []gb.Index{e.c}, []uint64{e.v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(4 * sec); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s, entries
}

// verifyRecovered checks a recovered store serves the exact reference
// content over the full span.
func verifyRecovered(t *testing.T, s *Store[uint64], entries []entry, t0, t1 int64) {
	t.Helper()
	r, err := s.QueryRange(t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Uncovered) != 0 {
		t.Fatalf("recovered range uncovered: %v", r.Uncovered)
	}
	got, err := r.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(got, reference(t, entries, t0, t1)) {
		t.Fatalf("recovered content differs from reference over [%d,%d)", t0, t1)
	}
}

func TestDurableWindowedKillPoints(t *testing.T) {
	sec := int64(time.Second)

	t.Run("after-flush-active-windows", func(t *testing.T) {
		dir := t.TempDir()
		s, entries := seedDurable(t, dir)
		defer s.Close()
		crash := copyDir(t, dir) // kill -9 with two active windows
		rec, st, err := Recover[uint64](durableCfg(crash))
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		if st.Sealed != 5 || st.Active != 2 { // 4 sealed L0 + 1 roll-up
			t.Fatalf("recovered sealed=%d active=%d, want 5/2", st.Sealed, st.Active)
		}
		verifyRecovered(t, rec, entries, 0, 6*sec)
		// Active windows resume: a fresh append to window 5 lands.
		if err := rec.Append(5*sec+7, []gb.Index{99}, []gb.Index{99}, []uint64{5}); err != nil {
			t.Fatal(err)
		}
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := rec.QueryRange(5*sec, 6*sec)
		if err != nil {
			t.Fatal(err)
		}
		v, ok, err := r.Lookup(99, 99)
		if err != nil || !ok || v != 5 {
			t.Fatalf("post-recovery append: lookup = %d/%v/%v", v, ok, err)
		}
		// And appends behind the recovered frontier stay refused.
		if err := rec.Append(2*sec, []gb.Index{1}, []gb.Index{1}, []uint64{1}); !errors.Is(err, ErrLate) {
			t.Fatalf("append behind recovered frontier: %v, want ErrLate", err)
		}
	})

	t.Run("session-minting-floor", func(t *testing.T) {
		// The store manifest's session frontier advances only at store
		// barriers, while a window's group logs every frame (SyncEvery 1
		// here): a sessioned frame accepted after the last Flush
		// recovers into the window's table but not the manifest.
		// ResumeSeq must under-report from the manifest (the frame's
		// durability is unproven store-wide) and MintSeq must over-report
		// from the window tables (its seq is spent either way).
		dir := t.TempDir()
		s, err := New[uint64](dim, dim, durableCfg(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if dup, err := s.AppendSession("sess-W", 1, 5, []gb.Index{1}, []gb.Index{2}, []uint64{3}, nil); err != nil || dup {
			t.Fatalf("seq 1: dup=%v err=%v", dup, err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if dup, err := s.AppendSession("sess-W", 2, 7, []gb.Index{3}, []gb.Index{4}, []uint64{5}, nil); err != nil || dup {
			t.Fatalf("seq 2: dup=%v err=%v", dup, err)
		}
		// Drain the owning window's group (not a store barrier: the
		// manifest frontier must stay at 1) so seq 2's synced WAL record
		// is on disk when the "crash" copies the directory.
		if err := s.wins[key{0, 0}].g.Err(); err != nil {
			t.Fatal(err)
		}
		crash := copyDir(t, dir)
		rec, _, err := Recover[uint64](durableCfg(crash))
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		if got := rec.ResumeSeq("sess-W"); got != 1 {
			t.Fatalf("recovered ResumeSeq = %d, want 1 (manifest frontier under-reports)", got)
		}
		if got := rec.MintSeq("sess-W"); got != 2 {
			t.Fatalf("recovered MintSeq = %d, want 2 (window tables carry the spent seq)", got)
		}
		// The resuming client retransmits seq 2 — absorbed by the window
		// group's table — and mints new data at 3, which must land.
		if _, err := rec.AppendSession("sess-W", 2, 7, []gb.Index{3}, []gb.Index{4}, []uint64{5}, nil); err != nil {
			t.Fatal(err)
		}
		if dup, err := rec.AppendSession("sess-W", 3, 9, []gb.Index{5}, []gb.Index{6}, []uint64{7}, nil); err != nil || dup {
			t.Fatalf("seq 3: dup=%v err=%v", dup, err)
		}
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		entries := []entry{
			{ts: 5, r: 1, c: 2, v: 3},
			{ts: 7, r: 3, c: 4, v: 5},
			{ts: 9, r: 5, c: 6, v: 7},
		}
		verifyRecovered(t, rec, entries, 0, int64(time.Second))
	})

	t.Run("seal-marker-lost", func(t *testing.T) {
		dir := t.TempDir()
		s, entries := seedDurable(t, dir)
		defer s.Close()
		crash := copyDir(t, dir)
		// Simulate a crash between a seal's group close and its marker:
		// drop one sealed window's SEALED file in the copy.
		victim := filepath.Join(crash, filepath.Base(victimDir(t, crash, 0, 2*sec)), sealedMarkerName)
		if err := os.Remove(victim); err != nil {
			t.Fatal(err)
		}
		rec, st, err := Recover[uint64](durableCfg(crash))
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		if st.Resealed != 1 {
			t.Fatalf("Resealed = %d, want 1", st.Resealed)
		}
		if st.Sealed != 5 {
			t.Fatalf("Sealed = %d, want 5", st.Sealed)
		}
		verifyRecovered(t, rec, entries, 0, 6*sec)
		// The re-seal restored the marker, so a second recovery is clean.
		if _, err := os.Stat(victim); err != nil {
			t.Fatalf("re-seal did not restore the marker: %v", err)
		}
	})

	t.Run("rollup-durable", func(t *testing.T) {
		dir := t.TempDir()
		s, entries := seedDurable(t, dir)
		defer s.Close()
		crash := copyDir(t, dir)
		rec, _, err := Recover[uint64](durableCfg(crash))
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		// The aligned epoch answers from the recovered roll-up alone.
		r, err := rec.QueryRange(0, 4*sec)
		if err != nil {
			t.Fatal(err)
		}
		if r.Windows() != 1 {
			t.Fatalf("recovered rolled epoch covered by %d windows: %v", r.Windows(), r.Spans())
		}
		got, err := r.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if !matricesEqual(got, reference(t, entries, 0, 4*sec)) {
			t.Fatal("recovered roll-up differs from reference")
		}
		// Children recovered as rolled: sealing onward must not re-roll.
		if got := rec.Stats().RollUps; got != 0 {
			t.Fatalf("recovery re-materialized %d roll-ups", got)
		}
	})

	t.Run("rollup-marker-lost-discards-partial-parent", func(t *testing.T) {
		dir := t.TempDir()
		s, entries := seedDurable(t, dir)
		defer s.Close()
		crash := copyDir(t, dir)
		// A roll-up directory without its SEALED marker is a crash mid-
		// materialization: its group manifest exists but may hold any
		// prefix of the children's sum. Recovery must discard it, NOT
		// promote it.
		parent := victimDir(t, crash, 1, 0)
		if err := os.Remove(filepath.Join(parent, sealedMarkerName)); err != nil {
			t.Fatal(err)
		}
		rec, st, err := Recover[uint64](durableCfg(crash))
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		if st.Sealed != 4 { // the 4 level-0 children; no parent
			t.Fatalf("recovered sealed=%d, want 4", st.Sealed)
		}
		if _, err := os.Stat(parent); !os.IsNotExist(err) {
			t.Fatalf("partial roll-up directory survived recovery: %v", err)
		}
		// The children answer exactly in the meantime…
		verifyRecovered(t, rec, entries, 0, 4*sec)
		// …and the next seal pass re-materializes the parent from them.
		if err := rec.Seal(5 * sec); err != nil {
			t.Fatal(err)
		}
		if got := rec.Stats().RollUps; got != 1 {
			t.Fatalf("re-materialized RollUps = %d, want 1", got)
		}
		r, err := rec.QueryRange(0, 4*sec)
		if err != nil {
			t.Fatal(err)
		}
		if r.Windows() != 1 {
			t.Fatalf("re-rolled epoch cover = %v", r.Spans())
		}
		got, err := r.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if !matricesEqual(got, reference(t, entries, 0, 4*sec)) {
			t.Fatal("re-materialized roll-up differs from reference")
		}
	})

	// Crashes inside a roll-up: the copy is taken at the named step. The
	// parent's directory exists by then but carries no SEALED marker, so
	// recovery must discard it, serve the children, and re-roll once.
	for _, stage := range []string{"merged", "closed"} {
		t.Run("rollup-crash-after-"+stage, func(t *testing.T) {
			dir := t.TempDir()
			var crash string
			s, entries := seedDurableHooked(t, dir, func(at string) {
				if at == stage && crash == "" {
					crash = copyDir(t, dir)
				}
			})
			defer s.Close()
			if crash == "" {
				t.Fatalf("roll-up hook %q never fired", stage)
			}
			rec, st, err := Recover[uint64](durableCfg(crash))
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			verifyRerollOnce(t, rec, st, entries)
		})
	}

	t.Run("rollup-parent-checkpoint-fails", func(t *testing.T) {
		// Sabotage the parent's final checkpoint: once the children are
		// merged in, a plain file takes the parent directory's place, so
		// Close cannot write its snapshots; an empty directory is back by
		// the time the marker would be written, so only Close's error can
		// stop it. The parent must not be marked, published or served; the
		// next seal pass re-rolls it.
		dir := t.TempDir()
		parent := ""
		s, entries := seedDurableHooked(t, dir, func(at string) {
			switch {
			case at == "merged" && parent == "":
				parent = victimDir(t, dir, 1, 0)
				if err := os.RemoveAll(parent); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(parent, nil, 0o644); err != nil {
					t.Fatal(err)
				}
			case at == "closed" && parent != "":
				if fi, err := os.Stat(parent); err == nil && !fi.IsDir() {
					if err := os.Remove(parent); err != nil {
						t.Fatal(err)
					}
					if err := os.Mkdir(parent, 0o755); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
		defer s.Close()
		if parent == "" {
			t.Fatal("roll-up hook never fired")
		}
		sub := s.Subscribe(1)
		if st := s.Stats(); st.RollUps != 0 || st.Sealed != 4 {
			t.Fatalf("failed roll-up counted: %+v", st)
		}
		for _, info := range s.Windows() {
			if info.Level > 0 || info.Rolled {
				t.Fatalf("failed roll-up left %+v behind", info)
			}
		}
		if _, err := os.Stat(parent); !os.IsNotExist(err) {
			t.Fatalf("failed parent's path survived: %v", err)
		}
		verifyRecovered(t, s, entries, 0, 6*sec)
		crash := copyDir(t, dir)
		if err := s.Seal(5 * sec); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().RollUps; got != 1 {
			t.Fatalf("live re-roll: RollUps = %d, want 1", got)
		}
		if sum, ok := sub.Next(); !ok || sum.Level != 1 || sum.Entries != 4 {
			t.Fatalf("re-rolled parent summary %+v (%v)", sum, ok)
		}
		rec, st, err := Recover[uint64](durableCfg(crash))
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		verifyRerollOnce(t, rec, st, entries)
	})

	t.Run("after-close-clean-restart", func(t *testing.T) {
		dir := t.TempDir()
		s, entries := seedDurable(t, dir)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		rec, st, err := Recover[uint64](durableCfg(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		if st.ReplayedBatches != 0 {
			t.Fatalf("clean restart replayed %d batches", st.ReplayedBatches)
		}
		if st.Active != 2 {
			t.Fatalf("clean restart active=%d, want 2", st.Active)
		}
		verifyRecovered(t, rec, entries, 0, 6*sec)
		// Sealing continues where the stream left off.
		if err := rec.Seal(6 * sec); err != nil {
			t.Fatal(err)
		}
		if got := rec.Stats().Seals; got != 7 { // 5 recovered + 2 new
			t.Fatalf("Seals after resumed sealing = %d, want 7", got)
		}
	})

	// The append that opens window 1 schedules window 0's seal, and a
	// kill -9 lands before the manifest records it: before the SEALED
	// marker too, or after it. Recovery brings window 0 back active in the
	// first case and sealed in the second, and the client's first
	// retransmission — window 0's first frame, which window 0 holds — must
	// be accepted once either way, never refused as late.
	for _, marker := range []bool{false, true} {
		name := "seal-scheduled-marker-and-manifest-not-written"
		if marker {
			name = "seal-marked-manifest-not-written"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableCfg(dir)
			cfg.RollUps, cfg.Lateness = nil, 0
			s, err := New[uint64](dim, dim, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			half := sec / 2
			for seq := uint64(1); seq <= 2; seq++ {
				if _, err := s.AppendSession("sess-K", seq, half, []gb.Index{1}, []gb.Index{2}, []uint64{seq}, nil); err != nil {
					t.Fatalf("seq %d: %v", seq, err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.AppendSession("sess-K", 3, sec+sec/5, []gb.Index{3}, []gb.Index{4}, []uint64{7}, nil); err != nil {
				t.Fatalf("seq 3: %v", err)
			}
			crash := copyDir(t, dir)
			if !marker {
				if err := os.Remove(filepath.Join(victimDir(t, crash, 0, 0), sealedMarkerName)); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join(crash, storeManifestName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var m storeManifest
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			m.SealedTo, m.Watermark, m.Sessions = 0, half, nil
			if data, err = json.Marshal(&m); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			cfg.Shard.Durable.Dir = crash
			rec, _, err := Recover[uint64](cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			// Accepted either way: as a duplicate, or handed to window 0's
			// group, whose own frontier drops it.
			if _, err := rec.AppendSession("sess-K", 1, half, []gb.Index{1}, []gb.Index{2}, []uint64{1}, nil); err != nil {
				t.Fatalf("retransmitted seq 1: %v", err)
			}
			if err := rec.Flush(); err != nil {
				t.Fatal(err)
			}
			entries := []entry{{ts: half, r: 1, c: 2, v: 1}, {ts: half, r: 1, c: 2, v: 2}}
			verifyRecovered(t, rec, entries, 0, sec)
		})
	}

	t.Run("replay-after-unsynced-crash", func(t *testing.T) {
		// A kill -9 while window 0's seal is queued loses window 0's
		// unsynced frames, and window 1 — opened by the frame that
		// scheduled the seal — recovers active. The client then replays
		// its frames in order. The first replayed frame must not seal
		// window 0 on the strength of window 1's existence: that would
		// refuse the next replayed frame of window 0 as late. Each window
		// must stay open until the replay passes its end.
		dir := t.TempDir()
		cfg := durableCfg(dir)
		cfg.RollUps, cfg.Lateness = nil, 0
		cfg.Shard.Durable.SyncEvery = 64 // group commit: nothing synced before the crash
		s, err := New[uint64](dim, dim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		frames := []entry{
			{ts: sec / 5, r: 1, c: 2, v: 3},
			{ts: sec / 2, r: 5, c: 6, v: 7},
			{ts: sec + sec/5, r: 8, c: 9, v: 10},
		}
		send := func(s *Store[uint64], seq int) (bool, error) {
			f := frames[seq-1]
			return s.AppendSession("sess-R", uint64(seq), f.ts, []gb.Index{f.r}, []gb.Index{f.c}, []uint64{f.v}, nil)
		}
		for seq := 1; seq <= 2; seq++ {
			if _, err := send(s, seq); err != nil {
				t.Fatal(err)
			}
		}
		s.sealMu.Lock() // window 0's seal stays queued
		opened := make(chan error, 1)
		go func() {
			_, err := send(s, 3)
			opened <- err
		}()
		for s.sessions.Resume("sess-R", false) < 3 {
			time.Sleep(time.Millisecond)
		}
		crash := copyDir(t, dir)
		s.sealMu.Unlock()
		if err := <-opened; err != nil {
			t.Fatal(err)
		}
		cfg.Shard.Durable.Dir = crash
		rec, st, err := Recover[uint64](cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		if st.Active != 2 || st.Sealed != 0 {
			t.Fatalf("recovered %+v, want windows 0 and 1 active", st)
		}
		if got := rec.Watermark(); got < sec {
			t.Fatalf("recovered Watermark = %d, want at least window 1's start", got)
		}
		for seq := 1; seq <= len(frames); seq++ {
			if _, err := send(rec, seq); err != nil {
				t.Fatalf("replayed seq %d: %v", seq, err)
			}
		}
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		verifyRecovered(t, rec, frames, 0, 2*sec)
	})

	t.Run("flush-beside-queued-seal", func(t *testing.T) {
		// Flush commits the session frontier for every frame accepted
		// before it, including frames in a window whose seal is scheduled
		// but still queued behind sealMu — a window Flush finds Sealing,
		// not Active. A kill -9 before that seal closes the group must not
		// lose such a frame: the recovered frontier may only cover frames
		// the recovered store holds.
		dir := t.TempDir()
		cfg := durableCfg(dir)
		cfg.RollUps, cfg.Lateness = nil, 0
		// Group commit, not per-batch sync: seq 1's WAL record waits in
		// memory for a barrier, as on a server run with -sync-every > 1.
		cfg.Shard.Durable.SyncEvery = 64
		s, err := New[uint64](dim, dim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.AppendSession("sess-F", 1, sec/2, []gb.Index{1}, []gb.Index{2}, []uint64{5}, nil); err != nil {
			t.Fatal(err)
		}
		s.sealMu.Lock() // the seal seq 2 schedules stays queued
		opened := make(chan error, 1)
		go func() {
			_, err := s.AppendSession("sess-F", 2, sec+sec/5, []gb.Index{3}, []gb.Index{4}, []uint64{7}, nil)
			opened <- err
		}()
		for s.sessions.Resume("sess-F", false) < 2 {
			time.Sleep(time.Millisecond)
		}
		if st := s.wins[key{0, 0}].state.Load(); st != Sealing {
			s.sealMu.Unlock()
			t.Fatalf("window 0 is %v, want sealing", st)
		}
		flushErr := s.Flush()
		crash := copyDir(t, dir)
		s.sealMu.Unlock()
		if err := <-opened; err != nil {
			t.Fatal(err)
		}
		if flushErr != nil {
			t.Fatal(flushErr)
		}
		cfg.Shard.Durable.Dir = crash
		rec, _, err := Recover[uint64](cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		if got := rec.ResumeSeq("sess-F"); got != 2 {
			t.Fatalf("recovered ResumeSeq = %d, want 2 (Flush returned after seq 2)", got)
		}
		entries := []entry{{ts: sec / 2, r: 1, c: 2, v: 5}, {ts: sec + sec/5, r: 3, c: 4, v: 7}}
		verifyRecovered(t, rec, entries, 0, 2*sec)
	})

	t.Run("accepted-never-flushed", func(t *testing.T) {
		dir := t.TempDir()
		s, entries := seedDurable(t, dir)
		defer s.Close()
		// One more accepted-but-never-flushed append: its fate after the
		// crash is per that window's group commit; everything flushed
		// before it must survive regardless.
		if err := s.Append(5*sec+800, []gb.Index{77}, []gb.Index{77}, []uint64{3}); err != nil {
			t.Fatal(err)
		}
		crash := copyDir(t, dir)
		rec, _, err := Recover[uint64](durableCfg(crash))
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		verifyRecovered(t, rec, entries, 0, 5*sec) // the flushed prefix, exact
	})
}

// verifyRerollOnce checks a store recovered without its roll-up parent:
// the children alone answer exactly, no level-1 window is served, and the
// next seal re-rolls the parent exactly once, bit-identical. Only the
// rolled epoch [0, 4s) is checked: a crash inside the seal that rolled it
// up precedes the flush of the later windows.
func verifyRerollOnce(t *testing.T, rec *Store[uint64], st RecoverStats, entries []entry) {
	t.Helper()
	sec := int64(time.Second)
	if st.Sealed != 4 { // the four level-0 children
		t.Fatalf("recovered sealed=%d, want 4", st.Sealed)
	}
	r, err := rec.QueryRange(0, 4*sec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Windows() != 4 {
		t.Fatalf("before the re-roll the epoch is covered by %v", r.Spans())
	}
	verifyRecovered(t, rec, entries, 0, 4*sec)
	for pass := 0; pass < 2; pass++ {
		if err := rec.Seal(int64(5+pass) * sec); err != nil {
			t.Fatal(err)
		}
		if got := rec.Stats().RollUps; got != 1 {
			t.Fatalf("seal pass %d: RollUps = %d, want 1", pass, got)
		}
	}
	if r, err = rec.QueryRange(0, 4*sec); err != nil {
		t.Fatal(err)
	}
	if r.Windows() != 1 {
		t.Fatalf("re-rolled epoch cover = %v", r.Spans())
	}
	verifyRecovered(t, rec, entries, 0, 4*sec)
}

// victimDir returns the window directory for (level, start) under root.
func victimDir(t *testing.T, root string, level int, start int64) string {
	t.Helper()
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if l, st, ok := parseWinDir(e.Name()); ok && l == level && st == start {
			return filepath.Join(root, e.Name())
		}
	}
	t.Fatalf("no window dir for level %d start %d", level, start)
	return ""
}

// TestDurableLifecycleErrors pins the misuse errors: double-open of a
// fresh root, Recover of a live root, Recover of a non-durable config.
func TestDurableLifecycleErrors(t *testing.T) {
	dir := t.TempDir()
	s, err := New[uint64](dim, dim, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New[uint64](dim, dim, durableCfg(dir)); err == nil {
		t.Fatal("second New over a live root succeeded")
	}
	if _, _, err := Recover[uint64](durableCfg(dir)); err == nil {
		t.Fatal("Recover of a live root succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := New[uint64](dim, dim, durableCfg(dir)); err == nil {
		t.Fatal("New over an existing (closed) root succeeded; want Recover-only")
	}
	if _, _, err := Recover[uint64](Config{Window: time.Second}); !errors.Is(err, shard.ErrNotDurable) {
		t.Fatalf("Recover without a directory: %v, want ErrNotDurable", err)
	}
	rec, _, err := Recover[uint64](durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec.Close()
}

// TestFailedSealPoisonsStore pins the seal-error path: a level-0 window
// whose SEALED marker cannot be written is neither published nor counted
// sealed, and the store's sticky error then fails every Append, Flush,
// Checkpoint and Seal instead of committing a session frontier over
// frames whose durability the seal never proved. The window stays
// unmarked on disk and the on-disk frontier stays behind it, so Recover
// brings it back active with its content intact.
func TestFailedSealPoisonsStore(t *testing.T) {
	sec := int64(time.Second)
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.Lateness = 0 // the first append in window 1 seals window 0
	s, err := New[uint64](dim, dim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sub := s.Subscribe(0)
	first := entry{ts: 5, r: 1, c: 1, v: 7}
	if err := s.Append(first.ts, []gb.Index{first.r}, []gb.Index{first.c}, []uint64{first.v}); err != nil {
		t.Fatal(err)
	}
	// A directory in the marker's place fails the marker write, even for
	// a process that ignores file permissions.
	if err := os.Mkdir(filepath.Join(victimDir(t, dir, 0, 0), sealedMarkerName), 0o755); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	// The crossing append lands in window 1; the seal it triggers fails.
	if err := s.Append(sec+5, []gb.Index{2}, []gb.Index{2}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err == nil {
		t.Fatal("Flush succeeded after a failed seal")
	}
	if st := s.Stats(); st.Sealed != before.Sealed || st.Seals != before.Seals {
		t.Fatalf("failed seal counted: before %+v, after %+v", before, st)
	}
	for _, info := range s.Windows() {
		if info.State == Sealed {
			t.Fatalf("failed seal published %+v", info)
		}
	}
	if err := s.Append(sec+6, []gb.Index{3}, []gb.Index{3}, []uint64{1}); err == nil {
		t.Fatal("Append succeeded after a failed seal")
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded after a failed seal")
	}
	if err := s.Seal(3 * sec); err == nil {
		t.Fatal("Seal succeeded after a failed seal")
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close reported success after a failed seal")
	}
	if sum, ok := sub.Next(); ok {
		t.Fatalf("subscriber got a summary for a failed seal: %+v", sum)
	}

	if err := os.Remove(filepath.Join(victimDir(t, dir, 0, 0), sealedMarkerName)); err != nil {
		t.Fatal(err)
	}
	rec, st, err := Recover[uint64](durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if st.Sealed != 0 || st.Resealed != 0 {
		t.Fatalf("recovered %+v: the unmarked window came back sealed", st)
	}
	verifyRecovered(t, rec, []entry{first}, 0, sec)
}

// TestRecoverRefusesOlderStoreManifest: a store root written before one
// log per window group (store manifest version 3) is refused, not misread,
// with a typed error that names both versions.
func TestRecoverRefusesOlderStoreManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := New[uint64](dim, dim, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, storeManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	man["version"] = 3
	if data, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Recover[uint64](durableCfg(dir))
	if !errors.Is(err, gb.ErrInvalidValue) || !strings.Contains(err.Error(), "store manifest version 3, want 4") {
		t.Fatalf("Recover of a version 3 store = %v, want ErrInvalidValue naming versions 3 and 4", err)
	}
}
