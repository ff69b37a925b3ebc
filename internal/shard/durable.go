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
// Each shard worker owns a write-ahead log (one file per shard per
// checkpoint epoch) and logs every ingest batch before applying it, with a
// group-commit sync policy; checkpoints serialize each shard's hierarchical
// matrix into a snapshot file and commit a manifest, after which the
// superseded logs are deleted. The on-disk layout under Durability.Dir:
//
//	MANIFEST.json              dimensions, shard count, cuts, epoch E,
//	                           per-shard snapshot names (committed atomically:
//	                           tmp + fsync + rename + dir fsync)
//	snap-SSSS.EEEEEEEEEE.hier  shard S's hier.Encode snapshot at epoch E
//	wal-SSSS.EEEEEEEEEE.log    shard S's batches logged since epoch E
//	LOCK                       single-owner lock (flock-held on unix; the
//	                           pid inside is an operator breadcrumb)
//
// The invariant every crash window preserves: restoring manifest epoch E's
// snapshots and replaying every surviving wal segment with epoch >= E (in
// ascending epoch order, tolerating a torn final frame at each shard's
// newest segment) yields exactly each shard's durable prefix of the
// stream. At the cross-shard durability points — Flush, Checkpoint, Close
// — the per-shard prefixes line up on a whole-stream prefix (the barrier
// syncs every shard atomically with respect to accepted batches); between
// them, the counter-based group commit runs per shard, so a crash may
// persist a batch's entries on some shards and not others until the next
// barrier. The
// checkpoint protocol orders its steps so this holds at every instant:
//
//	1. per shard, on the worker: fsync the live segment (epoch E), write
//	   snapshot E+1 (tmp + fsync + rename), rotate the log to a fresh
//	   segment E+1;
//	2. commit the manifest naming the epoch-E+1 snapshots;
//	3. delete segments and snapshots with epoch <= E.
//
// A crash before step 2 recovers from the old manifest: snapshot E plus
// the fully-synced segment E plus whatever made it into segment E+1 —
// the same state, reached the long way. A crash between 2 and 3 leaves
// stale files that recovery ignores (epoch < manifest epoch) and prunes.

// DefaultSyncEvery is the default group-commit interval: the per-shard WAL
// is fsynced after this many logged batches. 1 makes every batch durable
// at queue-drain time; larger values amortize the fsync at the cost of a
// longer undurable tail after a crash. Barriers (Flush, Checkpoint, Close)
// always sync regardless.
const DefaultSyncEvery = 64

// Durability configures the per-shard WAL + checkpoint persistence of a
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
	// manifestVersion 2 (the exactly-once release) added per-shard session
	// tables to the manifest and a session header to every WAL record;
	// version 3 made the batch record fixed-width (wal.AppendBatchRecord).
	// Each break is deliberate and strict — older segments would be
	// misparsed under the new record layout, and "old but cleanly closed"
	// cannot be told apart from "old with a live tail" reliably enough to
	// risk it — so recovery refuses older directories outright: re-ingest
	// them (or drain them through the old binary into a new server) rather
	// than upgrading in place.
	manifestVersion = 3
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

func walName(shard int, epoch uint64) string {
	return fmt.Sprintf("wal-%04d.%010d%s", shard, epoch, walSuffix)
}

func snapName(shard int, epoch uint64) string {
	return fmt.Sprintf("snap-%04d.%010d%s", shard, epoch, snapSuffix)
}

// parseDataFile recognizes wal segment and snapshot names, returning the
// shard and epoch they encode.
func parseDataFile(name string) (shard int, epoch uint64, isWAL, ok bool) {
	var rest string
	switch {
	case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, walSuffix):
		rest, isWAL = strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), walSuffix), true
	case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, snapSuffix):
		rest = strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), snapSuffix)
	default:
		return 0, 0, false, false
	}
	shardStr, epochStr, found := strings.Cut(rest, ".")
	if !found {
		return 0, 0, false, false
	}
	s, err1 := strconv.Atoi(shardStr)
	e, err2 := strconv.ParseUint(epochStr, 10, 64)
	if err1 != nil || err2 != nil || s < 0 {
		return 0, 0, false, false
	}
	return s, e, isWAL, true
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
	// Sessions, when present, has one entry per shard: the shard's
	// exactly-once high-water table at the moment its Epoch snapshot was
	// taken. It makes dedup state survive snapshot-only recovery — after a
	// checkpoint truncates the logs, the manifest is the only carrier of
	// the session frontiers the truncated records held. WAL replay then
	// advances the tables past these seeds.
	Sessions []map[string]uint64 `json:"sessions,omitempty"`
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
		return nil, fmt.Errorf("%w: manifest version %d, want %d (older directories hold an older WAL record layout and must be re-ingested)", gb.ErrInvalidValue, m.Version, manifestVersion)
	}
	if m.Shards < 1 || len(m.Snapshots) != m.Shards {
		return nil, fmt.Errorf("%w: manifest has %d shards, %d snapshots", gb.ErrInvalidValue, m.Shards, len(m.Snapshots))
	}
	if len(m.Sessions) != 0 && len(m.Sessions) != m.Shards {
		return nil, fmt.Errorf("%w: manifest has %d shards, %d session tables", gb.ErrInvalidValue, m.Shards, len(m.Sessions))
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
func (g *Group[T]) commitManifest(epoch uint64, snaps []string, sessions []map[string]uint64) error {
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

// shardWAL is one shard's write-ahead log: a wal.File plus the group-commit
// counter. It is owned by the shard's worker goroutine (barrier callbacks
// run there too), so no locking is needed; after Close the workers are gone
// and any access happens inline under the group's exclusive lock.
type shardWAL[T gb.Number] struct {
	shard     int
	f         *wal.File
	put       func(T) uint64
	met       *Metrics
	rec       *flight.Recorder // nil-safe; fsync events for the flight ring
	syncEvery int
	unsynced  int // batches appended since the last sync
	dirty     int // batches appended since the last snapshotted checkpoint
	buf       []byte
}

// logBatch frames one ingest batch into the log — the exactly-once dedup
// key first, then the batch record — and applies the group-commit policy:
// every syncEvery-th batch forces an fsync. Unkeyed batches (local
// ingest) carry the two-byte empty header.
func (l *shardWAL[T]) logBatch(sess string, seq uint64, rows, cols []gb.Index, vals []T) error {
	var err error
	l.buf, err = wal.AppendSessionHeader(l.buf[:0], sess, seq)
	if err != nil {
		return err
	}
	l.buf = wal.AppendBatchRecord(l.buf, rows, cols, vals, l.put)
	if err := l.f.Append(l.buf); err != nil {
		return err
	}
	l.unsynced++
	l.dirty++
	if l.unsynced >= l.syncEvery {
		return l.sync()
	}
	return nil
}

// sync makes every logged batch crash-durable; with nothing appended since
// the last successful sync it is free (so Flush on a quiescent stream
// costs no fsyncs). The group-commit counter resets only on success: a
// failed fsync may have dropped dirty pages (on Linux a retry can report
// success without rewriting them), so the error must keep propagating
// until the shard is poisoned, never be absorbed.
func (l *shardWAL[T]) sync() error {
	if l.unsynced == 0 {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	d := time.Since(start)
	l.met.WALFsync.Observe(d.Seconds())
	l.rec.Record(flight.KindWALFsync, 0, "", 0, uint64(l.shard), uint64(l.unsynced), d)
	l.unsynced = 0
	return nil
}

// rotate starts a fresh segment for the given epoch and fsyncs its
// directory entry immediately: a Flush can group-commit batches into the
// new segment before the checkpoint's manifest commit runs, and a durable
// file in a lost directory entry is no durability at all. The old segment
// stays on disk until the checkpoint that superseded it commits and
// prunes.
func (l *shardWAL[T]) rotate(dir string, epoch uint64) error {
	nf, err := l.f.Rotate(filepath.Join(dir, walName(l.shard, epoch)))
	if err != nil {
		return err
	}
	l.f = nf
	l.unsynced = 0
	return SyncDir(dir)
}

func (l *shardWAL[T]) close() error { return l.f.Close() }

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
// epoch-0 WAL segments for every shard and an initial manifest with no
// snapshots. It refuses a directory that already holds a manifest — that
// state belongs to an earlier group and should be restored with
// RecoverGroup, not silently shadowed.
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
	if err := g.openLogs(0); err != nil {
		releaseDirLock(dir)
		return err
	}
	if err := g.commitManifest(0, make([]string, len(g.workers)), nil); err != nil {
		g.closeLogs()
		releaseDirLock(dir)
		return err
	}
	return nil
}

// openLogs creates a fresh WAL segment per shard at the given epoch and
// attaches the shardWAL handles to the workers. On failure every segment
// already opened is closed again — a caller retrying against a flaky
// environment must not leak a descriptor per attempt.
func (g *Group[T]) openLogs(epoch uint64) error {
	for i, w := range g.workers {
		f, err := wal.Create(filepath.Join(g.cfg.Durable.Dir, walName(i, epoch)))
		if err != nil {
			g.closeLogs()
			return err
		}
		w.log = &shardWAL[T]{
			shard:     i,
			f:         f,
			put:       g.codec.Put,
			met:       g.cfg.Metrics,
			rec:       g.cfg.Flight,
			syncEvery: g.cfg.Durable.SyncEvery,
		}
	}
	return nil
}

// closeLogs closes and detaches whatever shard logs are open; error-path
// cleanup only (Close handles the normal shutdown itself).
func (g *Group[T]) closeLogs() {
	for _, w := range g.workers {
		if w.log != nil {
			w.log.close()
			w.log = nil
		}
	}
}

// Checkpoint makes the entire accepted stream durable and compact: a
// barrier (batch-atomic, like every query) at which each shard fsyncs its
// WAL, serializes its hierarchical matrix into a snapshot file, and rotates
// its log; then the manifest is committed atomically and the superseded
// logs and snapshots are deleted. After Checkpoint returns, recovery cost
// is the snapshot decode alone — the logs have been truncated.
//
// On a non-durable group it returns ErrNotDurable; after Close, ErrClosed
// (Close already took a final checkpoint).
func (g *Group[T]) Checkpoint() error {
	if g.cfg.Durable.Dir == "" {
		return ErrNotDurable
	}
	g.ckptMu.Lock()
	defer g.ckptMu.Unlock()
	start := time.Now()
	defer func() { g.cfg.Metrics.Checkpoint.Observe(time.Since(start).Seconds()) }()
	g.epoch++           // advance even on failure: names are never reused
	g.ckptFailed = true // until this attempt fully commits
	epoch := g.epoch
	g.cfg.Flight.Record(flight.KindCheckpointBegin, 0, "", 0, epoch, 0, 0)
	defer func() { g.cfg.Flight.Record(flight.KindCheckpointEnd, 0, "", 0, epoch, 0, time.Since(start)) }()
	accepted := g.sessions.Snapshot()
	errs := make([]error, len(g.workers))
	snaps := make([]string, len(g.workers))
	tables := make([]map[string]uint64, len(g.workers))
	if err := g.run(func(i int, w *worker[T]) {
		snaps[i], tables[i], errs[i] = g.checkpointShard(w, i, epoch, true)
	}); err != nil {
		return err
	}
	if err := firstError(errs); err != nil {
		return err
	}
	if err := g.commitEpoch(epoch, snaps, tables); err != nil {
		return err
	}
	g.sessions.Commit(accepted)
	return nil
}

// commitEpoch is the shared commit tail of every checkpoint flavor: the
// manifest rename that makes epoch's snapshots authoritative, then the
// pruning of everything they supersede. Both the barrier path (Checkpoint)
// and the inline path (Close) MUST go through it so their crash-window
// guarantees never diverge.
func (g *Group[T]) commitEpoch(epoch uint64, snaps []string, sessions []map[string]uint64) error {
	g.hook("snapshots")
	if err := g.commitManifest(epoch, snaps, sessions); err != nil {
		return err
	}
	g.hook("manifest")
	g.prune(epoch)
	g.ckptFailed = false
	return nil
}

// checkpointLocked is Checkpoint's shard loop run inline — used by Close,
// which holds both ckptMu and mu with the workers already stopped. No log
// rotation: nothing will ever be appended again, so a fresh segment would
// only litter the directory (Close closes the old, pruned-away segments
// right after). When nothing was logged since the last committed
// checkpoint, the whole step is skipped — the on-disk epoch already
// describes the final state exactly, and re-encoding every shard would
// double shutdown cost for nothing.
func (g *Group[T]) checkpointLocked() error {
	if !g.ckptFailed {
		clean := true
		for _, w := range g.workers {
			if w.log == nil || w.log.dirty > 0 {
				clean = false
				break
			}
		}
		if clean {
			return nil
		}
	}
	start := time.Now()
	defer func() { g.cfg.Metrics.Checkpoint.Observe(time.Since(start).Seconds()) }()
	g.epoch++
	g.ckptFailed = true
	epoch := g.epoch
	g.cfg.Flight.Record(flight.KindCheckpointBegin, 0, "", 0, epoch, 0, 0)
	defer func() { g.cfg.Flight.Record(flight.KindCheckpointEnd, 0, "", 0, epoch, 0, time.Since(start)) }()
	accepted := g.sessions.Snapshot()
	snaps := make([]string, len(g.workers))
	tables := make([]map[string]uint64, len(g.workers))
	for i, w := range g.workers {
		s, tab, err := g.checkpointShard(w, i, epoch, false)
		if err != nil {
			return err
		}
		snaps[i], tables[i] = s, tab
	}
	if err := g.commitEpoch(epoch, snaps, tables); err != nil {
		return err
	}
	g.sessions.Commit(accepted)
	return nil
}

// checkpointShard runs one shard's checkpoint steps on the shard's own
// goroutine (or inline once the workers are stopped): sync the live
// segment, write the epoch snapshot, and — when the group keeps running —
// rotate the log. Order matters: the sync must precede the rotation so a
// crash anywhere in between leaves a replayable segment chain. It also
// copies the shard's session high-water table (safe here: the callback
// runs on the table's owning goroutine) for the manifest, which must
// carry the dedup frontier the about-to-be-truncated records held.
func (g *Group[T]) checkpointShard(w *worker[T], i int, epoch uint64, rotate bool) (string, map[string]uint64, error) {
	if w.log == nil {
		return "", nil, ErrClosed
	}
	if w.err != nil {
		return "", nil, w.err
	}
	if err := w.log.sync(); err != nil {
		w.err = fmt.Errorf("wal: %w", err) // sticky: see Flush
		return "", nil, w.err
	}
	name := snapName(i, epoch)
	if err := writeSnapshot(filepath.Join(g.cfg.Durable.Dir, name), w.m, g.codec); err != nil {
		return "", nil, err
	}
	if rotate {
		if err := w.log.rotate(g.cfg.Durable.Dir, epoch); err != nil {
			// Sticky: Rotate closed the old segment before the new one
			// failed to open, so the shard has no live log — letting it
			// keep accepting batches would buffer frames over a closed
			// file and report success.
			w.err = fmt.Errorf("wal: %w", err)
			return "", nil, w.err
		}
	}
	w.log.dirty = 0 // this epoch's snapshot covers everything logged so far
	table := make(map[string]uint64, len(w.sessions))
	for s, q := range w.sessions {
		table[s] = q
	}
	return name, table, nil
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
		if _, ep, _, ok := parseDataFile(name); ok && ep < epoch {
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
	// TornTails counts shards whose newest segment ended in a torn or
	// corrupt final frame — the expected signature of a crash between
	// Append and Sync; the intact prefix was replayed.
	TornTails int
}

// RecoverGroup restores a durable group from cfg.Durable.Dir: the manifest
// fixes dimensions, shard count, and cuts (overriding cfg's values — the
// hash partition is only valid at the recorded shard count); each shard's
// snapshot is decoded and its surviving WAL segments are replayed in epoch
// order, tolerating a torn final frame at the newest segment (everything
// synced before the crash is restored; the unsynced tail is gone, exactly
// as group-commit promises). The recovered group then takes an immediate
// checkpoint — compacting replayed logs away and leaving the directory
// clean — and starts its workers, ready to ingest.
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
	codec := defaultCodec[T]()

	// 1+2. Restore each shard — decode its snapshot (or build an empty
	// cascade) and replay its surviving segments with epoch >= the
	// manifest's, oldest first — in one goroutine per shard: the shards'
	// files are disjoint and their matrices independent, so restart
	// latency on a multi-core host is the slowest single shard, not the
	// sum. The first error wins (the others finish and are discarded).
	// Segments below the manifest epoch are stale leftovers of a crash
	// between manifest commit and prune; they are ignored (and removed by
	// the checkpoint below).
	segs, maxEpoch, err := listSegments(dir, man)
	if err != nil {
		return nil, st, err
	}
	ms := make([]*hier.Matrix[T], man.Shards)
	tables := make([]map[string]uint64, man.Shards)
	perShard := make([]RecoverStats, man.Shards)
	shardErrs := make([]error, man.Shards)
	var wg sync.WaitGroup
	for i := range ms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ms[i], tables[i], perShard[i], shardErrs[i] = recoverShard[T](dir, man, i, segs[i], codec)
		}(i)
	}
	wg.Wait()
	if err := firstError(shardErrs); err != nil {
		return nil, st, err
	}
	for _, ps := range perShard {
		st.ReplayedBatches += ps.ReplayedBatches
		st.ReplayedEntries += ps.ReplayedEntries
		st.TornTails += ps.TornTails
	}

	// 3. Build the group around the restored matrices and — when anything
	// was replayed or a tail was torn — immediately checkpoint at a fresh
	// epoch (single-threaded, the workers are not started yet), so the
	// replayed logs compact away and a crash loop never replays the same
	// tail twice. The manifest MUST commit before the new epoch's (empty)
	// segments are created: creating them first would demote the shard's
	// possibly-torn old segment from newest-segment status, and a crash
	// before the commit would then make the next recovery misread that
	// tolerated torn tail as real corruption. A crash after the commit is
	// benign either way — a missing segment replays as empty. A clean
	// restart (nothing replayed, e.g. after Close's final checkpoint)
	// skips the re-encode entirely: the existing manifest and snapshots
	// already describe the restored state exactly, which keeps restart
	// latency at decode cost instead of decode + full re-encode.
	g, err := buildGroup[T](man.NRows, man.NCols, cfg, ms)
	if err != nil {
		return nil, st, err
	}
	// Hand each shard its recovered dedup table and derive the group
	// frontiers from them (Frontier.seedShards: min over shards to resume,
	// max to mint).
	for i, w := range g.workers {
		w.sessions = tables[i]
	}
	g.sessions.seedShards(tables)
	g.epoch = maxEpoch + 1
	if st.ReplayedBatches > 0 || st.TornTails > 0 {
		snaps := make([]string, len(g.workers))
		snapErrs := make([]error, len(g.workers))
		var swg sync.WaitGroup
		for i, w := range g.workers {
			swg.Add(1)
			go func(i int, m *hier.Matrix[T]) {
				defer swg.Done()
				name := snapName(i, g.epoch)
				snapErrs[i] = writeSnapshot(filepath.Join(dir, name), m, g.codec)
				snaps[i] = name
			}(i, w.m)
		}
		swg.Wait()
		if err := firstError(snapErrs); err != nil {
			return nil, st, err
		}
		if err := g.commitManifest(g.epoch, snaps, tables); err != nil {
			return nil, st, err
		}
	}
	if err := g.openLogs(g.epoch); err != nil {
		return nil, st, err
	}
	// Persist the new segments' directory entries: file fsync (what Flush
	// does) does not cover them, and a power loss that dropped a segment's
	// entry would silently void every group commit made into it. The
	// NewGroup path gets this for free from commitManifest's SyncDir.
	if err := SyncDir(dir); err != nil {
		g.closeLogs()
		return nil, st, err
	}
	// Prune strictly below the MANIFEST's epoch: on the clean-restart
	// path no new manifest was committed, and pruning below g.epoch
	// would delete the very snapshots the old manifest still names.
	if st.ReplayedBatches > 0 || st.TornTails > 0 {
		g.prune(g.epoch)
	} else {
		g.prune(man.Epoch)
	}
	g.start()
	recovered = true // the lock now belongs to the running group
	return g, st, nil
}

// recoverShard rebuilds one shard's matrix and session high-water table:
// snapshot decode (or an empty cascade) with the manifest's table seed,
// then segment replay in epoch order, tolerating a torn final frame only
// in the newest segment. It touches only shard-local state, so
// RecoverGroup runs one per goroutine.
func recoverShard[T gb.Number](dir string, man *manifest, i int, shardSegs []segment, codec gb.Codec[T]) (*hier.Matrix[T], map[string]uint64, RecoverStats, error) {
	var st RecoverStats
	var m *hier.Matrix[T]
	table := make(map[string]uint64)
	if len(man.Sessions) > i {
		for s, q := range man.Sessions[i] {
			table[s] = q
		}
	}
	if snap := man.Snapshots[i]; snap != "" {
		var err error
		m, err = readSnapshot[T](filepath.Join(dir, snap), codec)
		if err != nil {
			return nil, nil, st, fmt.Errorf("snapshot %s: %w", snap, err)
		}
		if m.NRows() != man.NRows || m.NCols() != man.NCols {
			return nil, nil, st, fmt.Errorf("%w: snapshot dims %dx%d != manifest %dx%d",
				gb.ErrInvalidValue, m.NRows(), m.NCols(), man.NRows, man.NCols)
		}
	} else {
		var err error
		m, err = hier.New[T](man.NRows, man.NCols, hier.Config{Cuts: man.Cuts})
		if err != nil {
			return nil, nil, st, err
		}
	}
	for si, seg := range shardSegs {
		batches, entries, torn, err := replaySegment(seg.path, m, table, codec, si == len(shardSegs)-1)
		if err != nil {
			return nil, nil, st, fmt.Errorf("replaying %s: %w", filepath.Base(seg.path), err)
		}
		st.ReplayedBatches += batches
		st.ReplayedEntries += entries
		if torn {
			st.TornTails++
		}
	}
	return m, table, st, nil
}

type segment struct {
	path  string
	epoch uint64
}

// listSegments collects each shard's WAL segments with epoch >= the
// manifest's, sorted ascending, and reports the highest epoch present in
// the directory (manifest included) so recovery can pick a fresh one.
func listSegments(dir string, man *manifest) ([][]segment, uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	segs := make([][]segment, man.Shards)
	maxEpoch := man.Epoch
	for _, e := range ents {
		shard, epoch, isWAL, ok := parseDataFile(e.Name())
		if !ok {
			continue
		}
		if epoch > maxEpoch {
			maxEpoch = epoch
		}
		if !isWAL || shard >= man.Shards || epoch < man.Epoch {
			continue
		}
		segs[shard] = append(segs[shard], segment{path: filepath.Join(dir, e.Name()), epoch: epoch})
	}
	for _, s := range segs {
		sort.Slice(s, func(a, b int) bool { return s[a].epoch < s[b].epoch })
	}
	return segs, maxEpoch, nil
}

// replaySegment applies one WAL segment's batches to a shard matrix,
// advancing the session high-water table from each record's dedup header.
// A sessioned record at or below the table — possible when a checkpoint's
// manifest committed but its log truncation did not finish — replays the
// table advance but not the batch, exactly mirroring the live dedup skip.
// In the shard's newest segment (last=true) a torn or corrupt final frame
// is tolerated — the intact prefix is applied and torn=true is reported;
// in any older segment (fully synced before its checkpoint rotated away
// from it) the same condition is real corruption and fails the recovery.
func replaySegment[T gb.Number](path string, m *hier.Matrix[T], table map[string]uint64, codec gb.Codec[T], last bool) (batches, entries int, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, 0, false, nil // never-created segment: nothing to replay
		}
		return 0, 0, false, err
	}
	defer f.Close()
	r := wal.NewReader(f)
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return batches, entries, false, nil
		}
		if errors.Is(err, wal.ErrCorrupt) {
			if last {
				return batches, entries, true, nil
			}
			return batches, entries, false, err
		}
		if err != nil {
			return batches, entries, false, err
		}
		sess, seq, rest, err := wal.DecodeSessionHeader(rec)
		if err != nil {
			return batches, entries, false, err
		}
		if sess != "" && seq <= table[sess] {
			continue // already covered by the snapshot or an earlier record
		}
		rows, cols, vals, err := wal.DecodeBatchRecord(rest, codec.Get)
		if err != nil {
			return batches, entries, false, err
		}
		if err := m.Update(rows, cols, vals); err != nil {
			return batches, entries, false, err
		}
		if sess != "" {
			table[sess] = seq
		}
		batches++
		entries += len(rows)
	}
}
