package shard

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hhgb/internal/flight"
	"hhgb/internal/gb"
	"hhgb/internal/hier"
	"hhgb/internal/wal"
)

// Durability — the crash-safe half of the sharded frontend.
//
// A durable group owns one write-ahead log: one segment file per checkpoint
// epoch. Every accepted batch — an UpdateSession frame, an Update call, an
// Appender.Append call — is encoded once and appended whole, on the
// caller's goroutine, before any of its entries is buffered or enqueued; a
// group-commit policy fsyncs the segment. Workers only apply. Checkpoints
// serialize each shard's hierarchical matrix into a snapshot file and
// commit a manifest, after which the superseded segments are deleted. The
// on-disk layout under Durability.Dir:
//
//	MANIFEST.json              dimensions, shard count, cuts, epoch E,
//	                           per-shard snapshot names, the session table
//	                           at the cut (committed atomically: tmp +
//	                           fsync + rename + dir fsync)
//	snap-SSSS.EEEEEEEEEE.hier  shard S's hier.Encode snapshot at epoch E
//	wal-EEEEEEEEEE.log         every batch accepted since the epoch-E cut
//	LOCK                       single-owner lock (flock-held on unix; the
//	                           pid inside is an operator breadcrumb)
//
// The invariant every crash window preserves: restoring manifest epoch E's
// snapshots and replaying every surviving segment with epoch >= E (in
// ascending epoch order, routing each record's entries to their shard,
// tolerating a torn final frame only in the newest segment) yields a
// prefix of the accepted stream made of whole batches — on every shard at
// once, because a batch is one record. The session table replays with it,
// so the resume frontier is exactly that prefix. The checkpoint protocol
// orders its steps so this holds at every instant:
//
//	1. at the cut, under the exclusive group lock: drain the appenders,
//	   copy the accepted session table, rotate the log to segment E+1
//	   (the rotation fsyncs segment E first);
//	2. per shard, on its worker: write snapshot E+1 (tmp + fsync + rename);
//	3. commit the manifest naming the epoch-E+1 snapshots and the table;
//	4. delete segments and snapshots with epoch <= E.
//
// Segment E then holds exactly what snapshot E+1 covers. A crash before
// step 3 recovers from the old manifest: its snapshots plus the fully
// synced segments up to E plus whatever made it into segment E+1 — the
// same state, reached the long way. A crash between 3 and 4 leaves stale
// files that recovery ignores (epoch < manifest epoch) and prunes.

// DefaultSyncEvery is the default group-commit interval: the group's log
// is fsynced after this many logged batches. 1 makes every batch durable
// before its ingest call returns; larger values amortize the fsync at the
// cost of a longer undurable tail after a crash. Barriers (Flush,
// Checkpoint, Close) always sync regardless.
const DefaultSyncEvery = 64

// Durability configures the write-ahead log + checkpoint persistence of a
// Group.
type Durability struct {
	// Dir is the directory holding the manifest, WAL segments, and
	// snapshots. Empty disables durability.
	Dir string
	// SyncEvery is the group-commit interval in batches; zero or negative
	// selects DefaultSyncEvery.
	SyncEvery int
}

const (
	manifestName = "MANIFEST.json"
	lockName     = "LOCK"
	// manifestVersion 2 (the exactly-once release) added session tables
	// to the manifest and a session header to every WAL record; version 3
	// made the batch record fixed-width (wal.AppendBatchRecord); version 4
	// replaced the per-shard segment chains and session tables with one
	// log and one table per group. Each break is deliberate and strict —
	// older segments would be misread under the new layout, and "old but
	// cleanly closed" cannot be told apart from "old with a live tail"
	// reliably enough to risk it — so recovery refuses older directories
	// outright: re-ingest them (or drain them through the old binary into
	// a new server) rather than upgrading in place.
	manifestVersion = 4
	walSuffix       = ".log"
	snapSuffix      = ".hier"
)

// heldDirs tracks the durability directories owned by live groups in THIS
// process, each with its released-on-Close lock handle. An on-disk lock
// alone cannot cleanly distinguish a live same-process group from an
// abandoned one, so without this registry a second NewGroup/RecoverGroup
// in the same process could take over a directory out from under a
// running group and prune its live segments.
var (
	heldDirsMu sync.Mutex
	heldDirs   = map[string]io.Closer{}
)

// acquireDirLock claims single-owner access to a durability directory.
// Two live groups over one directory would advance epochs independently
// and prune each other's live segments — silent loss of fsync-confirmed
// data — so the claim is refused while any live owner exists: an
// in-process owner via the heldDirs registry, a foreign process via the
// platform lock on the LOCK file (lockDir: flock(2) on unix — atomic,
// kernel-held, and self-releasing when the owner dies, so a crash can
// never leave a stale lock behind).
func acquireDirLock(dir string) error {
	key, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	heldDirsMu.Lock()
	if _, held := heldDirs[key]; held {
		heldDirsMu.Unlock()
		return fmt.Errorf("shard: %s is already owned by a live group in this process", dir)
	}
	heldDirs[key] = nil // reserve against concurrent in-process claims
	heldDirsMu.Unlock()
	h, err := lockDir(dir)
	heldDirsMu.Lock()
	if err != nil {
		delete(heldDirs, key)
	} else {
		heldDirs[key] = h
	}
	heldDirsMu.Unlock()
	return err
}

// AcquireDirLock claims single-owner access to a directory for a caller
// outside this package (internal/window uses it for a window store's root
// directory; each window's group still claims its own subdirectory through
// NewGroup/RecoverGroup). Semantics match the per-group lock: refused while
// any live owner exists, in this process or another; released by
// ReleaseDirLock, or by the kernel the instant the owning process dies.
func AcquireDirLock(dir string) error { return acquireDirLock(dir) }

// ReleaseDirLock releases a claim taken with AcquireDirLock.
func ReleaseDirLock(dir string) { releaseDirLock(dir) }

func releaseDirLock(dir string) {
	key, err := filepath.Abs(dir)
	if err != nil {
		return
	}
	heldDirsMu.Lock()
	h := heldDirs[key]
	delete(heldDirs, key)
	heldDirsMu.Unlock()
	if h != nil {
		h.Close()
	}
}

// WriteFileSync writes data to path and fsyncs it before returning.
func WriteFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SyncDir fsyncs a directory so a just-renamed entry survives a crash.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func walName(epoch uint64) string {
	return fmt.Sprintf("wal-%010d%s", epoch, walSuffix)
}

func snapName(shard int, epoch uint64) string {
	return fmt.Sprintf("snap-%04d.%010d%s", shard, epoch, snapSuffix)
}

// parseDataFile recognizes segment and snapshot names, returning the epoch
// they carry.
func parseDataFile(name string) (epoch uint64, isWAL, ok bool) {
	var digits string
	switch {
	case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, walSuffix):
		digits, isWAL = strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), walSuffix), true
	case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, snapSuffix):
		if _, digits, ok = strings.Cut(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), snapSuffix), "."); !ok {
			return 0, false, false
		}
	default:
		return 0, false, false
	}
	e, err := strconv.ParseUint(digits, 10, 64)
	return e, isWAL, err == nil
}

// manifest is the JSON root record naming the current durable state.
type manifest struct {
	Version int      `json:"version"`
	NRows   gb.Index `json:"nrows"`
	NCols   gb.Index `json:"ncols"`
	Shards  int      `json:"shards"`
	Cuts    []int    `json:"cuts"`
	Epoch   uint64   `json:"epoch"`
	// Snapshots has one entry per shard: the snapshot file restoring the
	// shard's state at Epoch, or "" when the shard starts empty (only the
	// initial epoch-0 manifest).
	Snapshots []string `json:"snapshots"`
	// Sessions is the group's accepted session table at Epoch's cut: per
	// client session, the highest frame seq the snapshots hold. After a
	// checkpoint deletes the segments, the manifest is the only carrier of
	// the seqs their records held; replay advances the table from there.
	Sessions map[string]uint64 `json:"sessions,omitempty"`
}

func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("shard: parsing %s: %w", manifestName, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("%w: manifest version %d, want %d (older directories hold an older WAL layout and must be re-ingested)", gb.ErrInvalidValue, m.Version, manifestVersion)
	}
	if m.Shards < 1 || len(m.Snapshots) != m.Shards {
		return nil, fmt.Errorf("%w: manifest has %d shards, %d snapshots", gb.ErrInvalidValue, m.Shards, len(m.Snapshots))
	}
	return &m, nil
}

// commitManifest atomically replaces the manifest: write to a temp file,
// fsync it, rename over the old manifest, fsync the directory. Readers see
// either the old or the new manifest, never a torn one. The directory is
// also fsynced BEFORE the manifest rename, so the snapshot renames the
// manifest is about to reference are durable first — rename ordering
// across a power loss is filesystem-dependent, and a manifest naming
// nonexistent snapshots would be unrecoverable.
func (g *Group[T]) commitManifest(epoch uint64, snaps []string, sessions map[string]uint64) error {
	m := manifest{
		Version:   manifestVersion,
		NRows:     g.nrows,
		NCols:     g.ncols,
		Shards:    len(g.workers),
		Cuts:      g.cfg.Hier.Cuts,
		Epoch:     epoch,
		Snapshots: snaps,
		Sessions:  sessions,
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	dir := g.cfg.Durable.Dir
	if err := SyncDir(dir); err != nil { // persist the snapshot renames first
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := WriteFileSync(tmp, append(data, '\n')); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	return SyncDir(dir)
}

// groupLog is a durable group's write-ahead log: the live segment, the
// group-commit counter, and the sticky error. Producers append to it on
// their own goroutines under mu, which also serializes the barriers'
// syncs and the checkpoint's rotation against them.
type groupLog[T gb.Number] struct {
	mu        sync.Mutex
	f         *wal.File
	put       func(T) uint64
	met       *Metrics
	rec       *flight.Recorder // nil-safe; fsync events for the flight ring
	syncEvery int
	unsynced  int // records appended since the last sync
	dirty     int // changes since the last checkpoint cut: records, AddAssign merges
	buf       []byte
	// err is the first failed append, sync, or rotation. It poisons the
	// group: after a failed fsync the log can no longer prove durability
	// (the kernel may have dropped the dirty pages), so every later ingest
	// call, barrier and checkpoint returns it rather than report success
	// over a hole in the log.
	err error
}

// append frames one accepted batch into the log — the exactly-once dedup
// key first, then the batch record — and applies the group-commit policy:
// the append that brings the count to syncEvery fsyncs. Unkeyed batches
// (local ingest) carry the two-byte empty header.
func (l *groupLog[T]) append(sess string, seq uint64, rows, cols []gb.Index, vals []T) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	var err error
	if l.buf, err = wal.AppendSessionHeader(l.buf[:0], sess, seq); err != nil {
		return err
	}
	l.buf = wal.AppendBatchRecord(l.buf, rows, cols, vals, l.put)
	if err := l.f.Append(l.buf); err != nil {
		return l.fail(err)
	}
	l.unsynced++
	l.dirty++
	if l.unsynced >= l.syncEvery {
		return l.syncLocked()
	}
	return nil
}

// sync makes every logged batch crash-durable; with nothing appended since
// the last successful sync it is free (so Flush on a quiescent stream
// costs no fsync, and neither does one after Close).
func (l *groupLog[T]) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *groupLog[T]) syncLocked() error {
	if l.err != nil || l.unsynced == 0 {
		return l.err
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return l.fail(err)
	}
	d := time.Since(start)
	l.met.WALFsync.Observe(d.Seconds())
	l.rec.Record(flight.KindWALFsync, 0, "", 0, 0, uint64(l.unsynced), d)
	l.unsynced = 0
	return nil
}

// rotate fsyncs and closes the live segment, starts a fresh one for the
// given epoch, and fsyncs its directory entry at once: a Flush can
// group-commit batches into the new segment before the checkpoint's
// manifest commit runs, and a durable file in a lost directory entry is no
// durability at all. The old segment stays on disk until the checkpoint
// that superseded it commits and prunes. It runs at the checkpoint's cut,
// so everything logged so far is in the snapshots about to be written.
func (l *groupLog[T]) rotate(dir string, epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	nf, err := l.f.Rotate(filepath.Join(dir, walName(epoch)))
	if err != nil {
		return l.fail(err) // the old segment may be closed already
	}
	l.f = nf
	l.unsynced = 0
	l.dirty = 0
	if err := SyncDir(dir); err != nil {
		return l.fail(err)
	}
	return nil
}

// touch counts a change that bypassed the log (an AddAssign merge): only
// a snapshot can hold it, so Close must not skip its final checkpoint.
func (l *groupLog[T]) touch() {
	l.mu.Lock()
	l.dirty++
	l.mu.Unlock()
}

// clean reports whether nothing changed since the last checkpoint cut.
func (l *groupLog[T]) clean() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dirty == 0
}

// failed returns the sticky error.
func (l *groupLog[T]) failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

func (l *groupLog[T]) fail(err error) error {
	l.err = fmt.Errorf("wal: %w", err)
	return l.err
}

// close syncs and closes the live segment; a later sync is a no-op.
func (l *groupLog[T]) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.unsynced = 0
	return l.f.Close()
}

// defaultCodec picks the lossless wire codec for T: bit-exact for float
// types, sign-preserving two's-complement for every integer type. The
// probe works for named types too — T(1)/T(2) is 0 exactly when T
// truncates like an integer.
func defaultCodec[T gb.Number]() gb.Codec[T] {
	if probe := T(1) / T(2); probe != T(0) {
		return gb.Float64Codec[T]()
	}
	return gb.Int64Codec[T]()
}

// initDurability prepares a FRESH durability directory for a new group:
// the epoch-0 log segment and an initial manifest with no snapshots. It
// refuses a directory that already holds a manifest — that state belongs
// to an earlier group and should be restored with RecoverGroup, not
// silently shadowed.
func (g *Group[T]) initDurability() error {
	dir := g.cfg.Durable.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return fmt.Errorf("shard: %s already holds a durable group; use RecoverGroup to restore it", dir)
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err := acquireDirLock(dir); err != nil {
		return err
	}
	if err := g.openLog(0); err != nil {
		releaseDirLock(dir)
		return err
	}
	if err := g.commitManifest(0, make([]string, len(g.workers)), nil); err != nil {
		g.log.close()
		releaseDirLock(dir)
		return err
	}
	return nil
}

// openLog creates the log segment for the given epoch and attaches it.
func (g *Group[T]) openLog(epoch uint64) error {
	f, err := wal.Create(filepath.Join(g.cfg.Durable.Dir, walName(epoch)))
	if err != nil {
		return err
	}
	g.log = &groupLog[T]{
		f:         f,
		put:       g.codec.Put,
		met:       g.cfg.Metrics,
		rec:       g.cfg.Flight,
		syncEvery: g.cfg.Durable.SyncEvery,
	}
	return nil
}

// Checkpoint makes the entire accepted stream durable and compact: a
// barrier (batch-atomic, like every query) at whose cut the log rotates
// (fsyncing the old segment) and each shard serializes its hierarchical
// matrix into a snapshot file; then the manifest is committed atomically
// and the superseded segments and snapshots are deleted. After Checkpoint
// returns, recovery cost is the snapshot decode alone.
//
// On a non-durable group it returns ErrNotDurable; after Close, ErrClosed
// (Close already took a final checkpoint).
func (g *Group[T]) Checkpoint() error {
	if g.cfg.Durable.Dir == "" {
		return ErrNotDurable
	}
	g.ckptMu.Lock()
	defer g.ckptMu.Unlock()
	if g.closed { // written only under ckptMu, by Close
		return ErrClosed
	}
	return g.checkpoint(true)
}

// checkpoint is the one checkpoint body. live (Checkpoint) cuts the stream
// at a barrier on the running workers, copies the session table and
// rotates the log at the cut, and writes the snapshots on the workers.
// Inline (Close: workers stopped, g.mu held) syncs the log and writes the
// snapshots on the caller's goroutine, without rotation — nothing will
// ever be appended again, so a fresh segment would only litter the
// directory — and is skipped when nothing changed since the last
// committed checkpoint: the on-disk epoch then already describes the final
// state exactly, and re-encoding every shard would double shutdown cost
// for nothing. Requires ckptMu.
func (g *Group[T]) checkpoint(live bool) error {
	if err := g.log.failed(); err != nil {
		return err
	}
	if !live && !g.ckptFailed && g.log.clean() {
		return nil
	}
	start := time.Now()
	g.epoch++           // advance even on failure: names are never reused
	g.ckptFailed = true // until this attempt fully commits
	epoch := g.epoch
	g.cfg.Flight.Record(flight.KindCheckpointBegin, 0, "", 0, epoch, 0, 0)
	defer func() {
		d := time.Since(start)
		g.cfg.Metrics.Checkpoint.Observe(d.Seconds())
		g.cfg.Flight.Record(flight.KindCheckpointEnd, 0, "", 0, epoch, 0, d)
	}()
	dir := g.cfg.Durable.Dir
	var table map[string]uint64
	snaps := make([]string, len(g.workers))
	errs := make([]error, len(g.workers))
	snapshot := func(i int, w *worker[T]) {
		if w.err != nil {
			errs[i] = w.err
			return
		}
		snaps[i] = snapName(i, epoch)
		errs[i] = writeSnapshot(filepath.Join(dir, snaps[i]), w.m, g.codec)
	}
	var err error
	if live {
		err = g.barrier(func() error {
			table = g.sessions.Snapshot()
			return g.log.rotate(dir, epoch)
		}, snapshot)
	} else {
		table = g.sessions.Snapshot()
		if err = g.log.sync(); err == nil {
			for i, w := range g.workers {
				snapshot(i, w)
			}
		}
	}
	if err == nil {
		err = firstError(errs)
	}
	if err != nil {
		return err
	}
	g.hook("snapshots")
	if err := g.commitManifest(epoch, snaps, table); err != nil {
		return err
	}
	g.hook("manifest")
	g.prune(epoch)
	g.ckptFailed = false
	// Every seq in the table was logged before the cut, and the cut's
	// segment is synced and now superseded by committed snapshots.
	g.sessions.Commit(table)
	return nil
}

func (g *Group[T]) hook(stage string) {
	if g.ckptHook != nil {
		g.ckptHook(stage)
	}
}

// prune deletes WAL segments and snapshots superseded by the committed
// epoch, plus any stray temp files. Best-effort: a leftover file costs disk
// space, never correctness (recovery ignores epochs below the manifest's).
func (g *Group[T]) prune(epoch uint64) {
	dir := g.cfg.Durable.Dir
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if ep, _, ok := parseDataFile(name); ok && ep < epoch {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// writeSnapshot serializes a shard's hierarchical matrix (cascade state
// included) crash-safely: temp file, fsync, rename.
func writeSnapshot[T gb.Number](path string, m *hier.Matrix[T], c gb.Codec[T]) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := hier.Encode(bw, m, c); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readSnapshot[T gb.Number](path string, c gb.Codec[T]) (*hier.Matrix[T], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return hier.Decode[T](bufio.NewReaderSize(f, 1<<16), c)
}

// RecoverStats describes what RecoverGroup rebuilt.
type RecoverStats struct {
	// Epoch is the manifest epoch the snapshots restored.
	Epoch uint64
	// Shards is the recovered shard count (from the manifest).
	Shards int
	// ReplayedBatches and ReplayedEntries count the WAL records applied
	// on top of the snapshots.
	ReplayedBatches int
	ReplayedEntries int
	// TornTails is 1 when the log's newest segment ended in a torn or
	// corrupt final frame — the expected signature of a crash between
	// Append and Sync; the intact prefix was replayed. Otherwise 0.
	TornTails int
}

// RecoverGroup restores a durable group from cfg.Durable.Dir: the manifest
// fixes dimensions, shard count, and cuts (overriding cfg's values — the
// hash partition is only valid at the recorded shard count); the shards'
// snapshots are decoded in parallel, and the log's surviving segments are
// replayed once, in epoch order, each record's entries routed to their
// shard, tolerating a torn final frame at the newest segment (everything
// synced before the crash is restored; the unsynced tail is gone, exactly
// as group-commit promises). The session table replays with the records,
// so the recovered resume frontier equals the minting floor. The recovered
// group then takes an immediate checkpoint — compacting the replayed
// segments away and leaving the directory clean — and is ready to ingest.
//
// Recovery is proven bit-identical by the package kill-point tests: for
// every crash window, the recovered group's Summary, Entries, merged
// Query, and pushdown results equal the reference stream prefix.
func RecoverGroup[T gb.Number](cfg Config) (*Group[T], RecoverStats, error) {
	var st RecoverStats
	dir := cfg.Durable.Dir
	if dir == "" {
		return nil, st, ErrNotDurable
	}
	if err := acquireDirLock(dir); err != nil {
		return nil, st, err
	}
	recovered := false
	defer func() {
		if !recovered {
			releaseDirLock(dir)
		}
	}()
	man, err := readManifest(dir)
	if err != nil {
		return nil, st, err
	}
	st.Epoch = man.Epoch
	st.Shards = man.Shards
	cfg.Shards = man.Shards
	cfg.Hier = hier.Config{Cuts: man.Cuts}
	cfg = cfg.withDefaults()
	segs, maxEpoch, err := listSegments(dir, man.Epoch)
	if err != nil {
		return nil, st, err
	}

	// 1. Decode the shards' snapshots (or build empty cascades), one
	// goroutine per shard: the files are disjoint and the matrices
	// independent. The first error wins.
	ms := make([]*hier.Matrix[T], man.Shards)
	errs := make([]error, man.Shards)
	var wg sync.WaitGroup
	for i := range ms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ms[i], errs[i] = loadShard[T](dir, man, i)
		}(i)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return nil, st, err
	}

	// 2. Replay the segment chain once, oldest first, through the started
	// workers: this goroutine decodes and routes each record, the shards
	// apply in parallel. Segments below the manifest epoch are stale
	// leftovers of a crash between manifest commit and prune; they are
	// ignored (and removed by the checkpoint below).
	g, err := buildGroup[T](man.NRows, man.NCols, cfg, ms)
	if err != nil {
		return nil, st, err
	}
	g.start()
	defer func() {
		if !recovered {
			g.stop()
		}
	}()
	table := make(map[string]uint64, len(man.Sessions))
	for s, q := range man.Sessions {
		table[s] = q
	}
	for i, seg := range segs {
		if err := g.replaySegment(seg, table, i == len(segs)-1, &st); err != nil {
			return nil, st, fmt.Errorf("replaying %s: %w", filepath.Base(seg), err)
		}
	}
	g.sessions.Seed(table)
	g.epoch = maxEpoch + 1
	replayed := st.ReplayedBatches > 0 || st.TornTails > 0

	// 3. When anything was replayed or a tail was torn, checkpoint at a
	// fresh epoch, so the replayed segments compact away and a crash loop
	// never replays the same tail twice. The manifest MUST commit before
	// the new epoch's segment is created: creating it first would demote
	// the possibly-torn old segment from newest-segment status, and a crash
	// before the commit would then make the next recovery misread that
	// tolerated torn tail as real corruption. A clean restart (nothing
	// replayed, e.g. after Close's final checkpoint) skips the re-encode:
	// the existing manifest and snapshots already describe the restored
	// state exactly. The barrier also surfaces any apply error.
	snaps := make([]string, len(g.workers))
	if err := g.run(func(i int, w *worker[T]) {
		switch {
		case w.err != nil:
			errs[i] = w.err
		case replayed:
			snaps[i] = snapName(i, g.epoch)
			errs[i] = writeSnapshot(filepath.Join(dir, snaps[i]), w.m, g.codec)
		}
	}); err != nil {
		return nil, st, err
	}
	if err := firstError(errs); err != nil {
		return nil, st, err
	}
	if replayed {
		if err := g.commitManifest(g.epoch, snaps, table); err != nil {
			return nil, st, err
		}
	}
	if err := g.openLog(g.epoch); err != nil {
		return nil, st, err
	}
	// Persist the new segment's directory entry: file fsync (what Flush
	// does) does not cover it, and a power loss that dropped the entry
	// would silently void every group commit made into it. The NewGroup
	// path gets this for free from commitManifest's SyncDir.
	if err := SyncDir(dir); err != nil {
		g.log.close()
		return nil, st, err
	}
	// Prune strictly below the MANIFEST's epoch: on the clean-restart
	// path no new manifest was committed, and pruning below g.epoch
	// would delete the very snapshots the old manifest still names.
	if replayed {
		g.prune(g.epoch)
	} else {
		g.prune(man.Epoch)
	}
	recovered = true // the lock now belongs to the running group
	return g, st, nil
}

// loadShard decodes shard i's manifest snapshot, or builds an empty
// cascade when the manifest names none.
func loadShard[T gb.Number](dir string, man *manifest, i int) (*hier.Matrix[T], error) {
	snap := man.Snapshots[i]
	if snap == "" {
		return hier.New[T](man.NRows, man.NCols, hier.Config{Cuts: man.Cuts})
	}
	m, err := readSnapshot[T](filepath.Join(dir, snap), defaultCodec[T]())
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", snap, err)
	}
	if m.NRows() != man.NRows || m.NCols() != man.NCols {
		return nil, fmt.Errorf("%w: snapshot dims %dx%d != manifest %dx%d",
			gb.ErrInvalidValue, m.NRows(), m.NCols(), man.NRows, man.NCols)
	}
	return m, nil
}

// listSegments collects the log's segments with epoch >= from, sorted
// ascending, and reports the highest epoch present in the directory
// (from included) so recovery can pick a fresh one.
func listSegments(dir string, from uint64) ([]string, uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	type segment struct {
		path  string
		epoch uint64
	}
	var segs []segment
	maxEpoch := from
	for _, e := range ents {
		epoch, isWAL, ok := parseDataFile(e.Name())
		if !ok {
			continue
		}
		maxEpoch = max(maxEpoch, epoch)
		if isWAL && epoch >= from {
			segs = append(segs, segment{path: filepath.Join(dir, e.Name()), epoch: epoch})
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].epoch < segs[b].epoch })
	paths := make([]string, len(segs))
	for i, s := range segs {
		paths[i] = s.path
	}
	return paths, maxEpoch, nil
}

// replaySegment enqueues one segment's batches on the group's workers,
// each record's entries routed by shardOf, and advances the session table
// from each record's dedup header. In the newest segment (last=true) a
// torn or corrupt final frame is tolerated — the intact prefix is applied
// and counted in st.TornTails; in any older segment (fsynced by the
// rotation that superseded it) the same condition is real corruption and
// fails the recovery.
func (g *Group[T]) replaySegment(path string, table map[string]uint64, last bool, st *RecoverStats) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := wal.NewReader(f)
	var (
		rows, cols []gb.Index
		vals       []T
	)
	for {
		rec, err := r.Next()
		switch {
		case errors.Is(err, io.EOF):
			return nil
		case errors.Is(err, wal.ErrCorrupt) && last:
			st.TornTails++
			return nil
		case err != nil:
			return err
		}
		sess, seq, rest, err := wal.DecodeSessionHeader(rec)
		if err != nil {
			return err
		}
		if rows, cols, vals, err = wal.DecodeBatchRecordInto(rest, rows, cols, vals, g.codec.Get); err != nil {
			return err
		}
		g.enqueue(rows, cols, vals, nil)
		if sess != "" {
			table[sess] = max(table[sess], seq)
		}
		st.ReplayedBatches++
		st.ReplayedEntries += len(rows)
	}
}
