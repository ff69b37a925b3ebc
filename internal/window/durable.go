package window

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hhgb/internal/gb"
	"hhgb/internal/shard"
)

// Durable layout. The store root (Config.Shard.Durable.Dir) holds one
// subdirectory per retained window plus a store manifest:
//
//	WINDOWSTORE.json                store manifest: dims, window duration,
//	                                roll-ups, seal frontier (committed
//	                                atomically: tmp + rename)
//	win-L0-00000000000001700000000/ level-0 window starting at that unix-ns
//	  MANIFEST.json, wal-*, snap-*  the window's own durable shard.Group
//	  SEALED                        marker: the window sealed (its group
//	                                closed with a final checkpoint)
//	LOCK                            single-owner root lock
//
// Each window directory is a complete durable shard.Group, so every
// shard-layer crash-window guarantee (see internal/shard/durable.go)
// applies per window. On top, the store layer adds exactly one bit per
// window — SEALED — written after the group's final checkpoint:
//
//   - crash before a window seals: the window recovers live (its group's
//     WAL replays the synced prefix) and resumes as active;
//   - crash between a seal's group-close and its SEALED marker: recovery
//     observes end <= the manifest frontier and re-seals the window
//     (idempotent — the group close already made it final);
//   - crash after the marker: the window recovers sealed from snapshots
//     alone, no replay.
//
// Seal summaries are NOT replayed across recovery: subscriptions are
// in-memory feeds, and a subscriber that must survive restarts should
// persist its own cursor over QueryRange.

const (
	storeManifestName = "WINDOWSTORE.json"
	sealedMarkerName  = "SEALED"
	// storeManifestVersion tracks shard.manifestVersion: v2 is the
	// exactly-once release (store-level session frontier, session-bearing
	// per-window WALs), v3 the fixed-width batch record in those WALs, v4
	// one log and one session table per window group. Older store
	// directories are refused, not migrated — see the shard
	// manifestVersion comment; re-ingest them.
	storeManifestVersion = 4
	winDirPrefix         = "win-L"
)

// storeManifest is the JSON root record fixing the store's shape.
type storeManifest struct {
	Version    int      `json:"version"`
	NRows      gb.Index `json:"nrows"`
	NCols      gb.Index `json:"ncols"`
	WindowNs   int64    `json:"window_ns"`
	RollUps    []int    `json:"rollups,omitempty"`
	Retentions []int64  `json:"retentions_ns,omitempty"`
	LatenessNs int64    `json:"lateness_ns"`
	SealedTo   int64    `json:"sealed_to"`
	Watermark  int64    `json:"watermark"`
	// Sessions is the store's durable exactly-once frontier at the last
	// barrier: per client session, the highest frame seq provably on disk
	// across every window — including windows sealed and since expired,
	// whose own manifests are gone. Recovery seeds the store frontier from
	// it; losing an advance (the write is best-effort at seal time)
	// under-reports and merely forces a retransmission.
	Sessions map[string]uint64 `json:"sessions,omitempty"`
}

// winDir names a window's subdirectory: level and zero-padded start, so
// lexical order is time order within a level.
func (s *Store[T]) winDir(level int, start int64) string {
	return filepath.Join(s.cfg.Shard.Durable.Dir, fmt.Sprintf("%s%d-%020d", winDirPrefix, level, start))
}

// parseWinDir recognizes window subdirectory names.
func parseWinDir(name string) (level int, start int64, ok bool) {
	if !strings.HasPrefix(name, winDirPrefix) {
		return 0, 0, false
	}
	lvlStr, startStr, found := strings.Cut(strings.TrimPrefix(name, winDirPrefix), "-")
	if !found {
		return 0, 0, false
	}
	l, err1 := strconv.Atoi(lvlStr)
	st, err2 := strconv.ParseInt(startStr, 10, 64)
	if err1 != nil || err2 != nil || l < 0 || st < 0 {
		return 0, 0, false
	}
	return l, st, true
}

// initDurable claims a fresh root directory and writes the initial store
// manifest. A root already holding a manifest belongs to an earlier store
// and must be restored with Recover.
func (s *Store[T]) initDurable() error {
	root := s.cfg.Shard.Durable.Dir
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, storeManifestName)); err == nil {
		return fmt.Errorf("window: %s already holds a window store; use Recover to restore it", root)
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err := shard.AcquireDirLock(root); err != nil {
		return err
	}
	if err := s.persistMeta(); err != nil {
		shard.ReleaseDirLock(root)
		return err
	}
	return nil
}

// persistMeta commits the store manifest atomically (tmp + rename). The
// frontier it records trails the sealed windows' markers — recovery treats
// any window whose end is at or before the recorded frontier as sealed,
// and re-seals stragglers idempotently.
func (s *Store[T]) persistMeta() error {
	s.mu.Lock()
	m := storeManifest{
		Version:    storeManifestVersion,
		NRows:      s.nrows,
		NCols:      s.ncols,
		WindowNs:   s.spans[0],
		RollUps:    s.cfg.RollUps,
		LatenessNs: int64(s.cfg.Lateness),
		SealedTo:   s.sealedTo,
		Watermark:  s.watermark,
	}
	for _, r := range s.cfg.Retentions {
		m.Retentions = append(m.Retentions, int64(r))
	}
	s.mu.Unlock()
	m.Sessions = s.sessions.DurableTable()
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	root := s.cfg.Shard.Durable.Dir
	tmp := filepath.Join(root, storeManifestName+".tmp")
	// Fsynced, not just written: the manifest carries the durable session
	// frontier, and a frontier advance should survive the same crash the
	// barrier that produced it survived.
	if err := shard.WriteFileSync(tmp, append(data, '\n')); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(root, storeManifestName)); err != nil {
		return err
	}
	return shard.SyncDir(root)
}

func (s *Store[T]) persistMetaBestEffort() {
	if s.failed() != nil {
		// After a failed seal the on-disk frontier stays put, so the
		// window whose seal failed resumes active after Recover.
		return
	}
	_ = s.persistMeta() // losing a frontier advance re-seals idempotently
}

// markSealed drops the SEALED marker in a window's directory and makes it
// durable: recovery discards a roll-up parent without one, even after
// expiry has deleted its children.
func (s *Store[T]) markSealed(w *win[T]) error {
	if err := shard.WriteFileSync(filepath.Join(w.dir, sealedMarkerName), []byte("sealed\n")); err != nil {
		return err
	}
	return shard.SyncDir(w.dir)
}

// removeWinDir deletes an expired window's durable state.
func (s *Store[T]) removeWinDir(w *win[T]) {
	_ = os.RemoveAll(w.dir)
}

// RecoverStats describes what Recover rebuilt.
type RecoverStats struct {
	Windows  int // window directories restored (all levels)
	Sealed   int // restored sealed (marker present, or behind the frontier)
	Active   int // restored live, ready to ingest
	Resealed int // windows re-sealed (crash between group close and marker)
	// Replayed sums the per-window shard-layer WAL replay counts.
	ReplayedBatches int
	ReplayedEntries int
	TornTails       int
}

// Recover restores a window store from a root directory a previous durable
// store wrote. The store manifest fixes the dimensions, window duration,
// and roll-up/retention/lateness shape; cfg supplies only the per-window
// shard tuning (Depth, Handoff, Durable.SyncEvery — Shards and Hier come
// from each window's own manifest). Every retained window is recovered
// through the shard layer's RecoverGroup — windows in parallel, shards
// within a window in parallel — so each window independently restores its
// durable prefix with the usual torn-tail tolerance. Sealed windows come
// back sealed (closed, queryable); unsealed windows whose end is behind
// the recorded frontier are re-sealed (without re-publishing summaries —
// subscriptions do not survive restarts); the rest resume active.
func Recover[T gb.Number](cfg Config) (*Store[T], RecoverStats, error) {
	var st RecoverStats
	root := cfg.Shard.Durable.Dir
	if root == "" {
		return nil, st, shard.ErrNotDurable
	}
	data, err := os.ReadFile(filepath.Join(root, storeManifestName))
	if err != nil {
		return nil, st, err
	}
	var man storeManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, st, fmt.Errorf("window: parsing %s: %w", storeManifestName, err)
	}
	if man.Version != storeManifestVersion {
		return nil, st, fmt.Errorf("%w: store manifest version %d, want %d (older directories hold an older WAL record layout and must be re-ingested)", gb.ErrInvalidValue, man.Version, storeManifestVersion)
	}
	if man.WindowNs <= 0 {
		return nil, st, fmt.Errorf("%w: store manifest window %dns", gb.ErrInvalidValue, man.WindowNs)
	}
	cfg.Window = time.Duration(man.WindowNs)
	cfg.RollUps = man.RollUps
	cfg.Lateness = time.Duration(man.LatenessNs)
	cfg.Retentions = cfg.Retentions[:0]
	for _, r := range man.Retentions {
		cfg.Retentions = append(cfg.Retentions, time.Duration(r))
	}
	if err := shard.AcquireDirLock(root); err != nil {
		return nil, st, err
	}
	ok := false
	defer func() {
		if !ok {
			shard.ReleaseDirLock(root)
		}
	}()

	s, err := buildRecovered[T](man, cfg)
	if err != nil {
		return nil, st, err
	}

	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, st, err
	}
	type pendingWin struct {
		level  int
		start  int64
		dir    string
		marked bool
	}
	var pend []pendingWin
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		level, start, okDir := parseWinDir(e.Name())
		if !okDir || level >= len(s.spans) {
			continue
		}
		dir := filepath.Join(root, e.Name())
		if _, err := os.Stat(filepath.Join(dir, "MANIFEST.json")); err != nil {
			continue // a window that never committed its group; nothing durable
		}
		_, merr := os.Stat(filepath.Join(dir, sealedMarkerName))
		if level > 0 && merr != nil {
			// A roll-up whose SEALED marker never landed is a crash
			// mid-materialization: its group manifest commits at creation
			// and its snapshots at the final checkpoint, so the directory
			// holds nothing or the whole sum, never known to be final.
			// Discard it — the children are not marked rolled below, so
			// the next seal pass re-materializes the parent from scratch.
			_ = os.RemoveAll(dir)
			continue
		}
		pend = append(pend, pendingWin{level: level, start: start, dir: dir, marked: merr == nil})
	}
	sort.Slice(pend, func(a, b int) bool {
		if pend[a].level != pend[b].level {
			return pend[a].level < pend[b].level
		}
		return pend[a].start < pend[b].start
	})
	// Level-0 windows seal one at a time in start order, so every window
	// before a marked one is marked too. A marked window past the recorded
	// frontier is a crash between its marker and the next manifest write:
	// move the frontier past it, so that every level-0 window at or after
	// the frontier is active, as append relies on.
	for _, p := range pend {
		if p.level == 0 && p.marked {
			s.sealedTo = max(s.sealedTo, p.start+s.spans[0])
		}
	}

	// Recover the window groups in parallel — each is an independent
	// durable directory, and the shard layer already parallelizes within
	// one. First error wins.
	wins := make([]*win[T], len(pend))
	perWin := make([]shard.RecoverStats, len(pend))
	errs := make([]error, len(pend))
	var wg sync.WaitGroup
	for i, p := range pend {
		wg.Add(1)
		go func(i int, p pendingWin) {
			defer wg.Done()
			gcfg := s.groupConfig(p.dir)
			g, rst, err := shard.RecoverGroup[T](gcfg)
			if err != nil {
				errs[i] = fmt.Errorf("window %s: %w", filepath.Base(p.dir), err)
				return
			}
			if g.NRows() != s.nrows || g.NCols() != s.ncols {
				g.Close()
				errs[i] = fmt.Errorf("%w: window %s dims %dx%d != store %dx%d",
					gb.ErrInvalidValue, filepath.Base(p.dir), g.NRows(), g.NCols(), s.nrows, s.ncols)
				return
			}
			perWin[i] = rst
			wins[i] = &win[T]{
				level: p.level,
				start: p.start,
				end:   p.start + s.spans[p.level],
				g:     g,
				dir:   p.dir,
			}
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, w := range wins {
				if w != nil {
					w.g.Close()
				}
			}
			return nil, st, fmt.Errorf("recovering %d windows: %w", len(pend), err)
		}
		st.ReplayedBatches += perWin[i].ReplayedBatches
		st.ReplayedEntries += perWin[i].ReplayedEntries
		st.TornTails += perWin[i].TornTails
	}

	for i, w := range wins {
		st.Windows++
		sealed := pend[i].marked
		if !sealed && w.end <= s.sealedTo {
			// A level-0 window behind the recorded frontier without its
			// marker: crash between the seal's group close and the marker
			// write. Its data arrived by ingest (complete up to the
			// durable prefix, unlike a partial roll-up copy, which was
			// discarded above), so re-seal it — idempotent, no summary
			// re-publication.
			sealed = true
			st.Resealed++
		}
		if sealed {
			// A no-op checkpoint on a cleanly-closed group; a re-sealed
			// window takes its final checkpoint and then its marker.
			err := w.g.Close()
			if err == nil && !pend[i].marked {
				err = s.markSealed(w)
			}
			if err != nil {
				for _, w := range wins {
					w.g.Close()
				}
				return nil, st, fmt.Errorf("sealing window %s: %w", filepath.Base(w.dir), err)
			}
			// Re-stash the sealed window's session table (the barrier runs
			// inline on a closed group) so retransmissions behind the
			// frontier are still recognized as duplicates after a restart.
			w.sessHigh = w.g.SessionHighs()
			w.state.Store(Sealed)
			s.stats.Sealed++
			s.stats.Seals++
			st.Sealed++
		} else {
			w.state.Store(Active)
			s.stats.Active++
			st.Active++
			// An active window implies the stream reached at least its
			// start (see Store.reached).
			s.reached = max(s.reached, w.start)
		}
		if w.level > 0 {
			// A roll-up window's children are identifiable by span
			// containment; mark any surviving ones rolled so a restarted
			// roll-up pass neither re-materializes nor double-covers.
			for b := w.start; b < w.end; b += s.spans[w.level-1] {
				if c := s.wins[key{w.level - 1, b}]; c != nil {
					c.rolled = true
				}
			}
		}
		s.wins[key{w.level, w.start}] = w
		// Fold the window's session table into the store's minting floor:
		// any seq some window's group remembers would be silently
		// dup-dropped if a resuming client reused it, so MintSeq must see
		// the max over every recovered window — the manifest frontier
		// (already seeded into accepted) trails it by whatever was applied
		// since the last store barrier.
		highs := w.sessHigh
		if highs == nil {
			highs = w.g.SessionHighs()
		}
		s.sessions.RaiseMinted(highs)
	}
	ok = true
	registerStoreFuncs(s)
	return s, st, nil
}

// buildRecovered constructs the empty store shell around a manifest.
func buildRecovered[T gb.Number](man storeManifest, cfg Config) (*Store[T], error) {
	spans := []int64{man.WindowNs}
	for i, f := range man.RollUps {
		if f < 2 {
			return nil, fmt.Errorf("%w: manifest roll-up factor %d at level %d", gb.ErrInvalidValue, f, i)
		}
		spans = append(spans, spans[len(spans)-1]*int64(f))
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(nil)
	}
	s := &Store[T]{
		nrows:     man.NRows,
		ncols:     man.NCols,
		cfg:       cfg,
		spans:     spans,
		wins:      make(map[key]*win[T]),
		subs:      make(map[uint64]*Subscription[T]),
		watermark: man.Watermark,
		sealedTo:  man.SealedTo,
	}
	// Seed both session frontiers from the manifest: it is the only
	// carrier of seqs whose windows sealed and expired. The recovered
	// windows' own tables can only run ahead of it, and their dedup
	// (group frontiers, sealed sessHigh stashes) absorbs the difference.
	s.sessions.Seed(man.Sessions)
	return s, nil
}
