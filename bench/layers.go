package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hhgb"
	"hhgb/hhgbclient"
	"hhgb/internal/gb"
	"hhgb/internal/hier"
	"hhgb/internal/proto"
	"hhgb/internal/shard"
	"hhgb/internal/wal"
)

// The layer replay feeds a workload's own generated input bottom-up through
// each layer's public functions, with a benchmark-side span around every
// call. It runs after the workload's passes, in the traced run only, and
// gives the ladder: each rung's cost per entry and its ratio to the rung
// below, on the same input as the workload the rung belongs to.

const dim = gb.Index(1) << 32

func ones(n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }
func ms(d time.Duration) float64           { return float64(d.Nanoseconds()) / 1e6 }

// timeCall runs f under a span and returns how long it took.
func timeCall(rec *spanRec, parent int, layer, name string, count int, f func() error) (time.Duration, error) {
	id := rec.start(parent, layer, name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	rec.end(id, int64(count))
	if err != nil {
		err = fmt.Errorf("%s.%s: %w", layer, name, err)
	}
	return d, err
}

// replayLib is the bottom of the ladder on lib_ingest's input: the flat gb
// kernel, the hier cascade, and the in-memory shard.Group.
func replayLib(e *env, in *stream, rec *spanRec, _ map[string]float64) (map[string]float64, error) {
	root := rec.start(0, "bench", "layer_replay")
	defer rec.end(root, 0)
	vals := make(map[string]float64)
	n, set := e.sz.LibEdges, in.setSize
	w := ones(set)

	// gb: AppendTuples + Wait per set on one flat matrix — what the cascade
	// exists to avoid, so it is fed fewer entries.
	flat := gb.MustNewMatrix[uint64](dim, dim)
	var total time.Duration
	nGB := min(e.sz.GBEdges, n)
	for lo := 0; lo+set <= nGB; lo += set {
		d, err := timeCall(rec, root, "gb", "append_wait", set, func() error {
			if err := flat.AppendTuples(in.src[lo:lo+set], in.dst[lo:lo+set], w); err != nil {
				return err
			}
			flat.Wait()
			return nil
		})
		if err != nil {
			return nil, err
		}
		total += d
	}
	vals["gb.append_wait_ns_per_entry"] = nsPer(total, nGB)

	// gb: AddAssign of a first-cut-sized matrix into the flat one (one
	// cascade step in isolation), ten times with fresh sources.
	cut := min(hier.DefaultBaseCut, set)
	var steps []float64
	for i := 0; i < 10 && nGB+(i+1)*cut <= n; i++ {
		lo := nGB + i*cut
		small := gb.MustNewMatrix[uint64](dim, dim)
		if err := small.AppendTuples(in.src[lo:lo+cut], in.dst[lo:lo+cut], w[:cut]); err != nil {
			return nil, err
		}
		small.Wait()
		d, err := timeCall(rec, root, "gb", "add_assign", cut, func() error {
			if err := gb.AddAssign(flat, small, gb.Plus[uint64]().Op); err != nil {
				return err
			}
			flat.Wait()
			return nil
		})
		if err != nil {
			return nil, err
		}
		steps = append(steps, nsPer(d, cut))
	}
	vals["gb.add_assign_ns_per_entry"] = median(steps)
	flat = nil

	// hier: one default cascade, Update per set.
	h, err := hier.New[uint64](dim, dim, hier.DefaultConfig())
	if err != nil {
		return nil, err
	}
	total = 0
	var worst time.Duration
	for lo := 0; lo+set <= n; lo += set {
		d, err := timeCall(rec, root, "hier", "update", set, func() error {
			return h.Update(in.src[lo:lo+set], in.dst[lo:lo+set], w)
		})
		if err != nil {
			return nil, err
		}
		total += d
		worst = max(worst, d)
	}
	vals["hier.update_ns_per_entry"] = nsPer(total, n)
	vals["hier.update_max_ms"] = ms(worst)
	vals["hier.ratio_to_gb"] = vals["hier.update_ns_per_entry"] / vals["gb.append_wait_ns_per_entry"]
	st := h.Stats()
	for i := 0; i < 3 && i < len(st.Cascades); i++ {
		vals[fmt.Sprintf("hier.cascades_l%d", i+1)] = float64(st.Cascades[i])
		vals[fmt.Sprintf("hier.cascaded_share_l%d", i+1)] = float64(st.CascadedEntries[i]) / float64(st.Updates)
	}
	d, err := timeCall(rec, root, "hier", "query", n, func() error { _, err := h.Query(); return err })
	if err != nil {
		return nil, err
	}
	vals["hier.query_ms"] = ms(d)
	var encoded countWriter
	d, err = timeCall(rec, root, "hier", "encode", n, func() error {
		return hier.Encode(&encoded, h, gb.Uint64Codec[uint64]())
	})
	if err != nil {
		return nil, err
	}
	vals["hier.encode_ms"] = ms(d)
	vals["hier.encode_bytes_per_entry"] = float64(encoded) / float64(n)
	h = nil

	// shard: the in-memory Group through one Appender per producer.
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := shard.NewGroup[uint64](dim, dim, shard.Config{Hier: hier.DefaultConfig()})
	if err != nil {
		return nil, err
	}
	defer g.Close()
	ingest, flush, err := groupIngest(g, in, 0, n, set, rec, root)
	if err != nil {
		return nil, err
	}
	vals["shard.append_ns_per_entry"] = nsPer(ingest, n)
	vals["shard.flush_ms"] = ms(flush)
	vals["shard.ratio_to_hier"] = vals["shard.append_ns_per_entry"] / vals["hier.update_ns_per_entry"]
	var most, sum int64
	for _, s := range g.ShardStats() {
		most, sum = max(most, s.Updates), sum+s.Updates
	}
	vals["shard.skew"] = float64(most) * float64(g.NumShards()) / float64(sum)
	stored, err := g.NVals()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	vals["shard.heap_bytes_per_entry"] = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(stored)
	return vals, nil
}

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) { *c += countWriter(len(p)); return len(p), nil }

// groupIngest streams in[lo:hi] into g from two producers, chunk entries
// per Append through one Appender each, then Flushes. It returns the wall
// time of the whole ingest, Flush included, and of the Flush alone.
func groupIngest(g *shard.Group[uint64], in *stream, lo, hi, chunk int, rec *spanRec, parent int) (ingest, flush time.Duration, err error) {
	w := ones(chunk)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	t0 := time.Now()
	for p := 0; p < 2; p++ {
		a, err := g.NewAppender()
		if err != nil {
			return 0, 0, err
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			id := rec.start(parent, "shard", "append")
			sent := 0
			for at := lo + p*chunk; at < hi && errs[p] == nil; at += 2 * chunk {
				end := min(at+chunk, hi)
				errs[p] = a.Append(in.src[at:end], in.dst[at:end], w[:end-at])
				sent += end - at
			}
			rec.end(id, int64(sent))
		}(p)
		defer a.Close()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, 0, fmt.Errorf("shard.append: %w", err)
		}
	}
	flush, err = timeCall(rec, parent, "shard", "flush", 1, g.Flush)
	return time.Since(t0), flush, err
}

// replayDurable is the durable rung and what it is made of, on
// wire_durable's input and frame size: the in-memory Group, the same Group
// with a WAL, checkpoint and recovery, the WAL codec and fsync, and the
// wire codec. pass is the workload's own measurement, the rung above.
func replayDurable(e *env, in *stream, rec *spanRec, pass map[string]float64) (map[string]float64, error) {
	root := rec.start(0, "bench", "layer_replay")
	defer rec.end(root, 0)
	vals := make(map[string]float64)
	n, total, frame := e.sz.DurableEdges, e.sz.DurableEdges+e.sz.DurableTail, e.sz.FrameEntries

	mem, err := shard.NewGroup[uint64](dim, dim, shard.Config{Hier: hier.DefaultConfig()})
	if err != nil {
		return nil, err
	}
	ingest, _, err := groupIngest(mem, in, 0, n, frame, rec, root)
	mem.Close()
	if err != nil {
		return nil, err
	}
	vals["shard.append_ns_per_entry"] = nsPer(ingest, n)

	dir, err := os.MkdirTemp(e.tmpDir, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	live := filepath.Join(dir, "live")
	dur, err := shard.NewGroup[uint64](dim, dim, shard.Config{Hier: hier.DefaultConfig(), Durable: shard.Durability{Dir: live}})
	if err != nil {
		return nil, err
	}
	defer dur.Close()
	ingest, flush, err := groupIngest(dur, in, 0, n, frame, rec, root)
	if err != nil {
		return nil, err
	}
	vals["shard.durable_append_ns_per_entry"] = nsPer(ingest, n)
	vals["shard.flush_ms"] = ms(flush)
	vals["shard.ratio_durable"] = vals["shard.durable_append_ns_per_entry"] / vals["shard.append_ns_per_entry"]
	vals["server.ratio_wire_to_shard_durable"] = 1e9 / pass["inserts_per_s"] / vals["shard.durable_append_ns_per_entry"]

	d, err := timeCall(rec, root, "shard", "checkpoint", n, dur.Checkpoint)
	if err != nil {
		return nil, err
	}
	vals["shard.checkpoint_ms"] = ms(d)
	if _, _, err := groupIngest(dur, in, n, total, frame, rec, root); err != nil {
		return nil, err
	}
	// The crash: the live group is never closed, so no final checkpoint
	// happens; a copy of its directory is what a kill -9 would leave (the
	// owner still holds the directory's lock in this process).
	crash := filepath.Join(dir, "crash")
	if err := copyDir(live, crash); err != nil {
		return nil, err
	}
	var rs shard.RecoverStats
	d, err = timeCall(rec, root, "shard", "recover", total, func() error {
		back, st, err := shard.RecoverGroup[uint64](shard.Config{Durable: shard.Durability{Dir: crash}})
		if err != nil {
			return err
		}
		rs = st
		sum, err := back.Total()
		e.check(err == nil && sum == uint64(total), "shard.recover: total %d, %v; want %d", sum, err, total)
		return back.Close()
	})
	if err != nil {
		return nil, err
	}
	vals["shard.recover_ms"] = ms(d)
	vals["shard.replayed_entries"] = float64(rs.ReplayedEntries)

	// wal: the batch record codec per frame, then a log file synced at the
	// group-commit interval the shards use.
	w := ones(frame)
	codec := gb.Uint64Codec[uint64]()
	var records [][]byte
	d, _ = timeCall(rec, root, "wal", "encode", n, func() error {
		for lo := 0; lo+frame <= n; lo += frame {
			records = append(records, wal.AppendBatchRecord(nil, in.src[lo:lo+frame], in.dst[lo:lo+frame], w, codec.Put))
		}
		return nil
	})
	framed := len(records) * frame
	vals["wal.encode_ns_per_entry"] = nsPer(d, framed)
	var bytes int
	for _, r := range records {
		bytes += len(r)
	}
	vals["wal.bytes_per_entry"] = float64(bytes) / float64(framed)
	d, err = timeCall(rec, root, "wal", "decode", framed, func() error {
		var rows, cols []gb.Index
		var v []uint64
		for _, r := range records {
			var err error
			if rows, cols, v, err = wal.DecodeBatchRecordInto(r, rows[:0], cols[:0], v[:0], codec.Get); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	vals["wal.decode_ns_per_entry"] = nsPer(d, framed)
	log, err := wal.Create(filepath.Join(dir, "replay.wal"))
	if err != nil {
		return nil, err
	}
	defer log.Close()
	var syncs []float64
	for i, r := range records {
		if err := log.Append(r); err != nil {
			return nil, err
		}
		if (i+1)%shard.DefaultSyncEvery == 0 || i == len(records)-1 {
			d, err := timeCall(rec, root, "wal", "sync", 1, log.Sync)
			if err != nil {
				return nil, err
			}
			syncs = append(syncs, ms(d))
		}
	}
	vals["wal.sync_ms_p50"] = median(syncs)
	vals["wal.syncs"] = float64(log.Syncs())

	// proto: the insert frame codec at the batched frame size.
	var frames [][]byte
	d, err = timeCall(rec, root, "proto", "encode", framed, func() error {
		for lo := 0; lo+frame <= n; lo += frame {
			body, err := proto.AppendInsert(nil, uint64(lo/frame+1), in.src[lo:lo+frame], in.dst[lo:lo+frame], w)
			if err != nil {
				return err
			}
			frames = append(frames, body)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	vals["proto.encode_ns_per_entry"] = nsPer(d, framed)
	bytes = 0
	for _, f := range frames {
		bytes += len(f)
	}
	vals["proto.wire_bytes_per_entry"] = float64(bytes) / float64(framed)
	d, err = timeCall(rec, root, "proto", "decode", framed, func() error {
		var b proto.Batch
		for _, f := range frames {
			if _, err := proto.ParseInsertBatch(f, &b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	vals["proto.decode_ns_per_entry_4096"] = nsPer(d, framed)
	return vals, nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// replayStream is the windowed rung on wire_stream_mixed's input and frame
// size: the flat facade fed the same small batches (the rung below), the
// Windowed facade with its seals, roll-ups and range resolution, the small
// frame's decode cost, reads that find the pushdown cache just invalidated,
// and the wire floor.
func replayStream(e *env, in *stream, rec *spanRec, _ map[string]float64) (map[string]float64, error) {
	root := rec.start(0, "bench", "layer_replay")
	defer rec.end(root, 0)
	vals := make(map[string]float64)
	fe := e.sz.StreamFrame
	frames := scheduleFrames(e.sz, e.seconds.Seconds())
	n := frames * fe
	interval := time.Second / time.Duration(e.sz.StreamFrames)

	flat, err := hhgb.NewSharded(1 << 32)
	if err != nil {
		return nil, err
	}
	d, err := timeCall(rec, root, "shard", "append", n, func() error {
		for i := 0; i < frames; i++ {
			if err := flat.Append(in.src[i*fe:(i+1)*fe], in.dst[i*fe:(i+1)*fe]); err != nil {
				return err
			}
		}
		return flat.Flush()
	})
	flat.Close()
	if err != nil {
		return nil, err
	}
	vals["shard.append_ns_per_entry"] = nsPer(d, n)

	// Event time starts on a roll-up boundary so the same windows seal and
	// roll up on every run.
	wm, err := hhgb.NewWindowed(1<<32, time.Second, hhgb.WithRollUps(10))
	if err != nil {
		return nil, err
	}
	defer wm.Close()
	base := time.Unix(1_700_000_000, 0)
	var appendTime time.Duration
	var seals, rollups []float64
	perWindow := e.sz.StreamFrames
	for lo := 0; lo < frames; lo += perWindow {
		hi := min(lo+perWindow, frames)
		d, err := timeCall(rec, root, "window", "append", (hi-lo)*fe, func() error {
			for i := lo; i < hi; i++ {
				if err := wm.Append(base.Add(time.Duration(i)*interval), in.src[i*fe:(i+1)*fe], in.dst[i*fe:(i+1)*fe]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		appendTime += d
		if hi-lo < perWindow {
			// The last, partial window stays active; drain it so every
			// entry's cost is inside the clock, as on the rung below.
			d, err := timeCall(rec, root, "window", "flush", 1, wm.Flush)
			if err != nil {
				return nil, err
			}
			appendTime += d
			break
		}
		rolled := wm.WindowStats().RollUps
		d, err = timeCall(rec, root, "window", "seal", 1, func() error {
			return wm.Seal(base.Add(time.Duration(hi) * interval))
		})
		if err != nil {
			return nil, err
		}
		if wm.WindowStats().RollUps > rolled {
			rollups = append(rollups, ms(d))
		} else {
			seals = append(seals, ms(d))
		}
	}
	vals["window.append_ns_per_entry"] = nsPer(appendTime, n)
	vals["window.ratio_to_shard"] = vals["window.append_ns_per_entry"] / vals["shard.append_ns_per_entry"]
	vals["window.seal_ms_p50"] = median(seals)
	vals["window.rollup_ms_p50"] = median(rollups)
	end := base.Add(time.Duration(frames) * interval)
	var resolves []float64
	for i := 0; i < 100; i++ {
		var view *hhgb.RangeView
		d, err := timeCall(rec, root, "window", "query_range", 1, func() error {
			var err error
			view, err = wm.QueryRange(end.Add(-time.Duration(e.sz.StreamTrailing)*time.Second), end)
			return err
		})
		if err != nil {
			return nil, err
		}
		resolves = append(resolves, float64(d.Nanoseconds())/1e3)
		vals["window.windows_touched"] = float64(view.Windows())
	}
	vals["window.range_resolve_us"] = median(resolves)

	// proto: decode of the small frame, and what it allocates.
	w := ones(fe)
	bodies := make([][]byte, frames)
	for i := range bodies {
		if bodies[i], err = proto.AppendInsertAt(nil, uint64(i+1), uint64(base.UnixNano()), in.src[i*fe:(i+1)*fe], in.dst[i*fe:(i+1)*fe], w); err != nil {
			return nil, err
		}
	}
	var b proto.Batch
	if _, _, err := proto.ParseInsertAtBatch(bodies[0], &b); err != nil { // warm the scratch
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d, err = timeCall(rec, root, "proto", "decode", frames, func() error {
		for _, body := range bodies {
			if _, _, err := proto.ParseInsertAtBatch(body, &b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	vals["proto.decode_ns_per_frame_8"] = nsPer(d, frames)
	vals["proto.decode_allocs_per_frame"] = float64(m1.Mallocs-m0.Mallocs) / float64(frames)

	// shard reads over one trailing range's worth of entries.
	if err := replayReads(e, in, min(n, e.sz.StreamTrailing*e.sz.StreamFrames*fe), rec, root, vals); err != nil {
		return nil, err
	}
	return vals, e.replayIdleRTT(rec, root, vals)
}

// replayRead is the read ladder on read_only's preload: the gb reduction,
// the Group's pushdown reads warm and cold, and the wire floor.
func replayRead(e *env, in *stream, rec *spanRec, _ map[string]float64) (map[string]float64, error) {
	root := rec.start(0, "bench", "layer_replay")
	defer rec.end(root, 0)
	vals := make(map[string]float64)
	n := e.sz.ReadPreload

	flat := gb.MustNewMatrix[uint64](dim, dim)
	if err := flat.AppendTuples(in.src[:n], in.dst[:n], ones(n)); err != nil {
		return nil, err
	}
	flat.Wait()
	var reduces []float64
	for i := 0; i < 10; i++ {
		d, err := timeCall(rec, root, "gb", "reduce_rows", n, func() error {
			_, err := gb.ReduceRows(flat, gb.Plus[uint64]())
			return err
		})
		if err != nil {
			return nil, err
		}
		reduces = append(reduces, ms(d))
	}
	vals["gb.reduce_rows_ms"] = median(reduces)
	flat = nil

	if err := replayReads(e, in, n, rec, root, vals); err != nil {
		return nil, err
	}
	return vals, e.replayIdleRTT(rec, root, vals)
}

// replayReads loads in[:n] into an in-memory Group and times its reads:
// warm (pushdown caches filled) and cold (right after a one-entry append
// invalidated them).
func replayReads(e *env, in *stream, n int, rec *spanRec, parent int, vals map[string]float64) error {
	g, err := shard.NewGroup[uint64](dim, dim, shard.Config{Hier: hier.DefaultConfig()})
	if err != nil {
		return err
	}
	defer g.Close()
	if _, _, err := groupIngest(g, in, 0, n, min(e.sz.FrameEntries, n), nil, 0); err != nil {
		return err
	}
	topRows := func() error { _, err := g.TopRows(10); return err }
	aggregate := func() error { _, err := g.AggregateAll(); return err }
	if err := topRows(); err != nil {
		return err
	}
	if err := aggregate(); err != nil {
		return err
	}
	pairs := reference(in, n, e.sz.Lookups, e.seed).pairs
	var lookups, topWarm, topCold, sumWarm, sumCold []float64
	for _, p := range pairs {
		d, err := timeCall(rec, parent, "shard", "lookup", 1, func() error { _, _, err := g.Lookup(p.src, p.dst); return err })
		if err != nil {
			return err
		}
		lookups = append(lookups, float64(d.Nanoseconds())/1e3)
	}
	one := []uint64{1}
	for i := 0; i < 10; i++ {
		for _, step := range []struct {
			name    string
			call    func() error
			samples *[]float64
			dirty   bool
		}{
			{"topk_warm", topRows, &topWarm, false},
			{"summary_warm", aggregate, &sumWarm, false},
			{"topk_cold", topRows, &topCold, true},
			{"summary_cold", aggregate, &sumCold, true},
		} {
			if step.dirty {
				// Re-adding a stored cell changes no answer's shape but
				// invalidates the owning shard's cache, as any ingest
				// batch beside the reads would.
				if err := g.Update(in.src[i:i+1], in.dst[i:i+1], one); err != nil {
					return err
				}
				if err := g.Flush(); err != nil {
					return err
				}
			}
			d, err := timeCall(rec, parent, "shard", step.name, 1, step.call)
			if err != nil {
				return err
			}
			*step.samples = append(*step.samples, ms(d))
		}
	}
	vals["shard.lookup_us"] = median(lookups)
	vals["shard.topk_warm_ms"] = median(topWarm)
	vals["shard.topk_cold_ms"] = median(topCold)
	vals["shard.summary_warm_ms"] = median(sumWarm)
	vals["shard.summary_cold_ms"] = median(sumCold)
	cs := g.CacheStats()
	if cs.Hits+cs.Misses > 0 {
		vals["shard.cache_hit_share"] = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	}
	return nil
}

// replayIdleRTT is the wire floor: Lookup round trips on an empty, idle
// server.
func (e *env) replayIdleRTT(rec *spanRec, parent int, vals map[string]float64) error {
	c, err := e.startChild(false)
	if err != nil {
		return err
	}
	defer c.kill()
	cl, err := hhgbclient.Dial(c.addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	var rtts []float64
	for i := 0; i < 2*e.sz.Lookups; i++ {
		d, err := timeCall(rec, parent, "hhgbclient", "lookup_idle", 1, func() error {
			_, _, err := cl.Lookup(uint64(i), uint64(i))
			return err
		})
		if err != nil {
			return err
		}
		rtts = append(rtts, float64(d.Nanoseconds())/1e3)
	}
	vals["hhgbclient.rtt_idle_us"] = median(rtts)
	return nil
}
