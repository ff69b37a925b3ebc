package shard

import "hhgb/internal/gb"

// Slab recycling: the buffers riding every data message — appender
// handoffs and UpdateSession partitions — circulate through a bounded
// free-list instead of being allocated per handoff and left to the
// garbage collector. A producer takes a slab when a shard buffer first
// needs backing, fills it, and hands it to the shard queue; the worker
// copies the entries into its cascade and puts the slab back. Once the
// list has warmed to the live producer/queue population, steady-state
// ingest recycles the same backing arrays forever.
//
// A plain buffered channel (not sync.Pool) keeps the recycling
// deterministic: sync.Pool empties at GC, which would make the
// "append stage allocates zero" budget tests racy against the collector.

// slab is one shard buffer's backing: three parallel arrays, length zero,
// capacity at least the group's handoff size.
type slab[T gb.Number] struct {
	rows []gb.Index
	cols []gb.Index
	vals []T
}

// newSlabList sizes the free-list to the group's worst-case circulation:
// every shard queue full plus one in flight per queue slot producer-side,
// so a saturated group recycles without ever dropping a slab on the
// floor. Retained memory stays bounded by the same product.
func newSlabList[T gb.Number](cfg Config) chan slab[T] {
	return make(chan slab[T], cfg.Shards*(cfg.Depth+2))
}

// getSlab pops a recycled slab or allocates a fresh one at handoff
// capacity. Never blocks.
func (g *Group[T]) getSlab() slab[T] {
	select {
	case s := <-g.slabs:
		return s
	default:
		h := g.cfg.Handoff
		return slab[T]{
			rows: make([]gb.Index, 0, h),
			cols: make([]gb.Index, 0, h),
			vals: make([]T, 0, h),
		}
	}
}

// putSlab recycles a slab (already truncated to length zero) onto the
// free-list, dropping it when the list is full. Never blocks.
func putSlab[T gb.Number](slabs chan slab[T], s slab[T]) {
	select {
	case slabs <- s:
	default:
	}
}

// dropFreeLists empties both free-lists for good; Close calls it once the
// workers have exited, since a closed group never hands off again.
func (g *Group[T]) dropFreeLists() {
	for {
		select {
		case <-g.slabs:
		case <-g.parts:
		default:
			return
		}
	}
}

// partScratch is the reusable per-call workspace of UpdateSession: the
// slice-of-slice headers that point each shard at its partition slab.
type partScratch[T gb.Number] struct {
	rows [][]gb.Index
	cols [][]gb.Index
	vals [][]T
}

// getParts pops (or allocates) a partition scratch sized to the shard
// count. Entries are nil; the caller lazily attaches slabs to the shards
// that receive entries and must nil every attached entry before putParts.
func (g *Group[T]) getParts() *partScratch[T] {
	select {
	case p := <-g.parts:
		return p
	default:
		n := len(g.workers)
		return &partScratch[T]{
			rows: make([][]gb.Index, n),
			cols: make([][]gb.Index, n),
			vals: make([][]T, n),
		}
	}
}

// putParts recycles a partition scratch whose entries are all nil again.
func (g *Group[T]) putParts(p *partScratch[T]) {
	select {
	case g.parts <- p:
	default:
	}
}
