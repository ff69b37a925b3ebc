package shard

import "sync"

// Frontier is the exactly-once session frontier of one ingest store — a
// Group, or a window store made of many groups. Per client session it keeps
// three seqs, one per safety direction:
//
//   - accepted: the highest frame seq whose entries the store has taken
//     in their entirety. A frame at or below it is a duplicate.
//   - durable: trails accepted on durable stores. It advances only when a
//     fsync barrier (Flush, Checkpoint, Close) commits a snapshot of
//     accepted taken before the barrier, so a resume frontier never promises
//     a seq a crash could lose.
//   - minted: set only by a window store's recovery. It is the highest seq
//     any recovered window remembers, which can exceed the store's
//     manifest frontier by whatever the windows took since the last store
//     barrier. Mint folds it in so a resuming client never reuses a seq
//     some window already holds.
//
// A session's accepted seqs form a prefix of its stream (the server applies
// a connection's frames in order), which is what makes one high-water mark
// a complete dedup test. The zero value is empty and ready to use. Its
// mutex is a leaf lock: nothing is acquired while it is held.
type Frontier struct {
	mu       sync.Mutex
	accepted map[string]uint64
	durable  map[string]uint64
	minted   map[string]uint64
}

// Dup reports whether seq is at or below the session's accepted frontier:
// the frame was already taken and must be acked without re-applying.
func (f *Frontier) Dup(session string, seq uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return seq <= f.accepted[session]
}

// Accept advances the session's accepted frontier to seq and reports
// whether it moved; it never moves backwards, and false means seq was
// already at or below it — a duplicate. The test and the advance are one
// step, so of two concurrent deliveries of one seq exactly one is taken.
func (f *Frontier) Accept(session string, seq uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if seq <= f.accepted[session] {
		return false
	}
	if f.accepted == nil {
		f.accepted = make(map[string]uint64)
	}
	f.accepted[session] = seq
	return true
}

// Resume reports the session's resume frontier — the highest frame seq a
// reconnecting client may drop from its retransmit ring: the durable
// frontier on a durable store, the accepted one otherwise; 0 for an unknown
// session. Under-reporting is always safe: the client retransmits and the
// accepted frontier drops the duplicates.
func (f *Frontier) Resume(session string, durable bool) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if durable {
		return f.durable[session]
	}
	return f.accepted[session]
}

// Mint reports the session's seq-minting floor: the highest frame seq the
// store's dedup state has ever recorded for it. A resuming client that lost
// its retransmit ring must assign new frames seqs strictly above it. Always
// >= Resume: over-reporting is the safe direction here.
func (f *Frontier) Mint(session string) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return max(f.accepted[session], f.minted[session])
}

// Snapshot copies the accepted frontier; nil when it is empty. A durability
// barrier takes it on entry, so its Commit publishes only seqs whose frames
// were taken — and therefore logged — before the barrier.
func (f *Frontier) Snapshot() map[string]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return copyTable(f.accepted)
}

// Commit publishes a pre-barrier Snapshot as the durable frontier once the
// barrier has succeeded. Max per key: barriers may commit out of order, and
// a commit must never move a session's durable frontier backwards.
func (f *Frontier) Commit(snap map[string]uint64) {
	if len(snap) == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.durable == nil {
		f.durable = make(map[string]uint64, len(snap))
	}
	for s, q := range snap {
		if q > f.durable[s] {
			f.durable[s] = q
		}
	}
}

// Seed sets both the accepted and the durable frontier to a recovered
// table: what a restart provably holds. Recovery calls it once, before any
// ingest.
func (f *Frontier) Seed(table map[string]uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.accepted = copyTable(table)
	f.durable = copyTable(table)
}

// RaiseMinted folds a recovered dedup table into the minting floor, max
// per key.
func (f *Frontier) RaiseMinted(table map[string]uint64) {
	if len(table) == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.minted == nil {
		f.minted = make(map[string]uint64, len(table))
	}
	for s, q := range table {
		if q > f.minted[s] {
			f.minted[s] = q
		}
	}
}

// DurableTable copies the durable frontier; nil when it is empty. The
// window store's manifest carries it across restarts.
func (f *Frontier) DurableTable() map[string]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return copyTable(f.durable)
}

// copyTable returns a copy of a session table; nil when it is empty.
func copyTable(t map[string]uint64) map[string]uint64 {
	if len(t) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(t))
	for s, q := range t {
		out[s] = q
	}
	return out
}
