package hhgb_test

import (
	"runtime"
	"testing"

	"hhgb"
	"hhgb/internal/powerlaw"
	"hhgb/internal/proto"
)

// TestFrameToApplyAllocBudget is the end-to-end allocation budget of the
// ingest hot path a wire connection takes: frame decode → the session
// frontier check, log append (durable) and partitioning of
// Sharded.AppendWeightedSession → the shard workers' apply, counted
// process-wide (runtime.MemStats.Mallocs) so the workers' side — cascade
// staging, merges — is inside the number. The per-stage
// testing.AllocsPerRun budgets (proto, shard, gb, wal) park the workers on
// purpose and cannot see it. The durable case holds the same ceiling: the
// log encodes every frame into one reused buffer.
//
// The ceiling separates the production shape from the one it replaced:
// one Batch reused across frames measures ≈ 0.8 mallocs/frame here, a
// fresh Batch per frame ≈ 3.8 (three decode slices per frame on top).
// The count reads the same under -race and -short (0.80–0.82 in both), so
// the test runs in every mode.
func TestFrameToApplyAllocBudget(t *testing.T) {
	t.Run("memory", func(t *testing.T) { frameToApplyAllocs(t) })
	t.Run("durable", func(t *testing.T) { frameToApplyAllocs(t, hhgb.WithDurability(t.TempDir())) })
}

func frameToApplyAllocs(t *testing.T, opts ...hhgb.Option) {
	const (
		scale    = 20
		frames   = 245 // ≈ 1M entries
		perFrame = 4096
		warm     = 8
		ceiling  = 2.0
	)
	g, err := powerlaw.NewRMAT(scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, frames)
	for i := range bodies {
		rows, cols, vals := powerlaw.ToTuples(g.Edges(perFrame))
		if bodies[i], err = proto.AppendInsert(nil, uint64(i+1), rows, cols, vals); err != nil {
			t.Fatal(err)
		}
	}

	m, err := hhgb.NewSharded(uint64(1)<<scale, append(opts, hhgb.WithShards(2))...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var (
		b   proto.Batch // reused across every frame, as the server does per connection
		seq uint64      // fresh per frame: the warm-up frames are sent again below
	)
	ingest := func(bodies [][]byte) {
		for _, body := range bodies {
			if _, err := proto.ParseInsertBatch(body, &b); err != nil {
				t.Fatal(err)
			}
			seq++
			if dup, err := m.AppendWeightedSession("alloc-budget", seq, b.Rows, b.Cols, b.Vals); err != nil || dup {
				t.Fatalf("frame %d: dup %v, err %v", seq, dup, err)
			}
		}
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Warm the batch, the partition slabs and each shard's cascade, and
	// settle at the barrier so warm-up work cannot bleed into the count.
	ingest(bodies[:warm])

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ingest(bodies)
	runtime.ReadMemStats(&after)

	perFrameAllocs := float64(after.Mallocs-before.Mallocs) / frames
	t.Logf("%.2f mallocs/frame over %d frames of %d entries", perFrameAllocs, frames, perFrame)
	if perFrameAllocs > ceiling {
		t.Fatalf("frame-to-apply path allocates %.2f/frame, over the %.1f budget", perFrameAllocs, ceiling)
	}
}
