package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"syscall"
	"time"

	"hhgb/hhgbclient"
)

// epoch is the event time of the schedule's first frame: a roll-up boundary,
// so that every run seals and rolls up the same windows at the same points
// of the schedule (one roll-up ten seconds in, one in the probe) whatever the
// wall clock reads. Windows follow the event-time watermark, not the clock.
var epoch = time.Unix(1_700_000_000, 0)

// blockedCall is the AppendAt duration from which a call counts as having
// waited for the server: an 8-entry frame that finds room in the pipelining
// window is copied and handed on in microseconds.
const blockedCall = time.Millisecond

// sleep blocks for d, the last millisecond of it on the kernel's
// high-resolution timer. A 40 µs schedule cannot use time.Sleep alone: when
// nothing else in the process runs, the Go runtime waits in epoll_wait, whose
// resolution is a millisecond, so such a sleep returned up to 1 ms late and
// the frames of that millisecond went out as one catch-up burst. Longer waits
// start in time.Sleep because a goroutine inside a system call keeps its
// processor from the connections' receive goroutines, which would delay the
// acks this workload times.
func sleep(d time.Duration) {
	if d > time.Millisecond {
		t0 := time.Now()
		time.Sleep(d - time.Millisecond)
		d -= time.Since(t0)
	}
	if d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil)
	}
}

// scheduleFrames is the length of the open-loop schedule: whole seconds, so
// that the probe after it starts on a window boundary.
func scheduleFrames(sz sizes, secs float64) int {
	return int(math.Ceil(secs)) * sz.StreamFrames
}

// readOp is one scheduled read of the open-loop reader.
type readOp struct {
	due  time.Duration // offset from the stream's base time
	kind int           // 0 lookup, 1 top-k, 2 summary
}

// readSchedule merges the three fixed-rate read schedules over secs seconds.
func readSchedule(sz sizes, secs float64) []readOp {
	var ops []readOp
	for kind, per10s := range []int{sz.StreamLookups, sz.StreamTopK, sz.StreamSummary} {
		for i := 0; i < int(float64(per10s)*secs/10); i++ {
			// Half a period of phase keeps the three schedules off each
			// other's due times.
			ops = append(ops, readOp{time.Duration((float64(i) + 0.5) / float64(per10s) * float64(10*time.Second)), kind})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// runWireStreamMixed is the open-loop workload: against an in-memory
// `hhgb-serve -window 1s -rollups 10`, one writer connection sends
// StreamFrame-entry AppendAt frames on a fixed StreamFrames/s schedule (event
// time = epoch + due time, so windows seal and roll up during the run) while
// one reader connection issues RangeLookup, RangeTopSources(10) and
// RangeSummary over the trailing StreamTrailing seconds on its own schedule.
// Every latency is timed from the request's due time, so a stall is charged
// to every request it delays. The schedule fixes the open loop's rate, so
// what the server could have taken is measured afterwards: the next
// StreamProbe seconds of the schedule (one roll-up period: ten seals and a
// roll-up) on the writer's connection, closed loop, as fast as the client's
// pipelining window lets the frames go.
func runWireStreamMixed(e *env, in *stream, rec *spanRec) (map[string]float64, error) {
	frames := scheduleFrames(e.sz, e.seconds.Seconds())
	secs := float64(frames / e.sz.StreamFrames)
	fe := e.sz.StreamFrame
	interval := time.Second / time.Duration(e.sz.StreamFrames)
	trailing := time.Duration(e.sz.StreamTrailing) * time.Second
	root := rec.start(0, "bench", "wire_stream_mixed")

	// Set-up is cheap here (child start and two handshakes), so it is taken
	// Setups times; the last server is the one the stream runs against.
	var setups []float64
	var c *child
	var writer, reader *hhgbclient.Client
	ackNs := make([]int64, 0, frames) // ack arrival, ns after base, in frame order
	var base time.Time
	for i := 0; i < e.sz.Setups; i++ {
		if c != nil {
			writer.Close()
			reader.Close()
			c.kill()
		}
		t0 := time.Now()
		var err error
		if c, err = e.startChild(rec != nil, "-window", "1s", "-rollups", "10"); err != nil {
			return nil, err
		}
		defer c.kill()
		// Frames are acked in order, so the k-th ack belongs to frame k.
		writer, err = hhgbclient.Dial(c.addr, hhgbclient.WithFlushEntries(fe),
			hhgbclient.WithAckLatency(func(time.Duration) {
				if len(ackNs) < frames { // the probe's acks are not the schedule's
					ackNs = append(ackNs, time.Since(base).Nanoseconds())
				}
			}))
		if err != nil {
			return nil, err
		}
		defer writer.Close()
		if reader, err = hhgbclient.Dial(c.addr); err != nil {
			return nil, err
		}
		defer reader.Close()
		setups = append(setups, time.Since(t0).Seconds())
	}

	ops := readSchedule(e.sz, secs)
	rng := rand.New(rand.NewPCG(e.seed, 0x72656164))
	mem := sampleRSS(c.cmd.Process.Pid)
	base = time.Now()
	var wg sync.WaitGroup
	var werr, rerr error
	var sendLate []float64    // how late the generator itself issued each frame, ms
	var blocked time.Duration // time inside AppendAt calls the client held on a full pipeline
	var goodput float64       // entries acked per second of the schedule, final Flush included
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		sendLate = make([]float64, 0, frames)
		burst, inBurst := 0, 0
		var owed time.Duration // blocked time since the writer was last on schedule
		for i := 0; i < frames; {
			due := time.Duration(i) * interval
			now := time.Since(base)
			if now < due {
				if burst != 0 {
					rec.end(burst, int64(inBurst*fe))
					burst, inBurst = 0, 0
				}
				owed = 0
				sleep(due - now)
				continue
			}
			if burst == 0 {
				burst = rec.start(root, "hhgbclient", "append_at")
			}
			// The generator's own lateness is how long after its due time a
			// frame is issued, less what the writer has since spent blocked
			// in the client on a full pipeline: that wait is the server's,
			// and the due-based ack latency charges it there. Everything
			// else that delays a frame — a descheduled writer, a slow timer,
			// the catch-up burst after either — is the generator's.
			sendLate = append(sendLate, float64((now-due-owed).Nanoseconds())/1e6)
			e.attempted.Add(1)
			if werr = writer.AppendAt(epoch.Add(due), in.src[i*fe:(i+1)*fe], in.dst[i*fe:(i+1)*fe]); werr != nil {
				return
			}
			if d := time.Since(base) - now; d > blockedCall {
				owed += d
				blocked += d
			}
			i++
			inBurst++
		}
		if burst != 0 {
			rec.end(burst, int64(inBurst*fe))
		}
		e.attempted.Add(1)
		werr = writer.Flush()
		goodput = float64(frames*fe) / time.Since(base).Seconds()
	}()
	var lat [3][]float64 // per read kind, from due time; µs for lookups, ms otherwise
	go func() {          // reader
		defer wg.Done()
		names := [3]string{"range_lookup", "range_topk", "range_summary"}
		for _, op := range ops {
			if now := time.Since(base); now < op.due {
				sleep(op.due - now)
			}
			t1 := epoch.Add(op.due)
			t0 := t1.Add(-trailing)
			id := rec.start(root, "hhgbclient", names[op.kind])
			e.attempted.Add(1)
			switch op.kind {
			case 0:
				// A pair the writer sent somewhere in the trailing range.
				back := time.Duration(rng.Int64N(int64(min(trailing, op.due) + 1)))
				j := int((op.due-back)/interval) * fe
				j = min(max(j, 0), frames*fe-1)
				_, _, rerr = reader.RangeLookup(in.src[j], in.dst[j], t0, t1)
			case 1:
				_, rerr = reader.RangeTopSources(10, t0, t1)
			case 2:
				_, rerr = reader.RangeSummary(t0, t1)
			}
			rec.end(id, 1)
			if rerr != nil {
				return
			}
			d := float64((time.Since(base) - op.due).Nanoseconds())
			if op.kind == 0 {
				lat[0] = append(lat[0], d/1e3)
			} else {
				lat[op.kind] = append(lat[op.kind], d/1e6)
			}
		}
	}()
	wg.Wait()
	if werr != nil {
		return nil, fmt.Errorf("wire_stream_mixed writer: %w", werr)
	}
	if rerr != nil {
		return nil, fmt.Errorf("wire_stream_mixed reader: %w", rerr)
	}
	rss := mem.meanMiB()
	elapsed := time.Since(base)

	// Ack latency from due time: arrival of frame k's ack minus k's due time.
	e.check(len(ackNs) == frames, "wire_stream_mixed: %d acks for %d frames", len(ackNs), frames)
	acks := make([]float64, len(ackNs))
	for k, at := range ackNs {
		acks[k] = float64(at-int64(k)*interval.Nanoseconds()) / 1e6
	}
	late := 0
	for _, ms := range sendLate {
		if ms > 1 {
			late++
		}
	}
	lateShare := float64(late) / float64(frames)
	// A generator that ran late measured itself, not the server: the run is
	// invalid, not slow. (A scaled-down run is a smoke test of a hundred-odd
	// frames, where one slow timer is already 1%; it measures nothing.)
	e.check(lateShare <= 0.05 || e.sz.Div > 1, "wire_stream_mixed: invalid run, the generator issued %.1f%% of its sends more than 1 ms late", lateShare*100)

	// Capacity: the next StreamProbe seconds of the schedule with their
	// scheduled event times, closed loop, a second at a time. A second of
	// schedule is exactly one window (epoch and the schedule's length are
	// whole seconds), so the seconds are this workload's cycles, and the
	// best one is the capacity, as in the closed-loop workloads. After each,
	// with the pipeline flushed, a share of the timed lookups: ranged over
	// the window just written, which holds that second's entries and nothing
	// else, so every answer can be checked; no ingest beside them, and
	// spread over the probe so that one slow moment of the host does not
	// decide their median.
	probe := e.sz.StreamProbe * e.sz.StreamFrames
	sent := (frames + probe) * fe
	share := e.sz.Lookups / e.sz.StreamProbe
	var rates, idle []float64 // entries/s per second of schedule; lookup round trips, µs
	for w := 0; w < e.sz.StreamProbe; w++ {
		lo, hi := frames+w*e.sz.StreamFrames, frames+(w+1)*e.sz.StreamFrames
		second := &stream{src: in.src[lo*fe : hi*fe], dst: in.dst[lo*fe : hi*fe]}
		ref := reference(second, (hi-lo)*fe, share, e.seed+uint64(w))
		id := rec.start(root, "hhgbclient", "append_at_closed")
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			e.attempted.Add(1)
			if err := writer.AppendAt(epoch.Add(time.Duration(i)*interval), in.src[i*fe:(i+1)*fe], in.dst[i*fe:(i+1)*fe]); err != nil {
				return nil, fmt.Errorf("wire_stream_mixed capacity probe: %w", err)
			}
		}
		e.attempted.Add(1)
		if err := writer.Flush(); err != nil {
			return nil, fmt.Errorf("wire_stream_mixed capacity probe: %w", err)
		}
		rates = append(rates, float64((hi-lo)*fe)/time.Since(t0).Seconds())
		rec.end(id, int64((hi-lo)*fe))
		w0, w1 := epoch.Add(time.Duration(lo)*interval), epoch.Add(time.Duration(hi)*interval-time.Nanosecond)
		e.timedLookups("wire_stream_mixed window", func(s, d uint64) (uint64, bool, error) {
			return reader.RangeLookup(s, d, w0, w1)
		}, ref, &idle)
	}
	rec.end(root, int64(sent))

	// Result check, after the clock stopped: totals and sampled lookups over
	// everything sent.
	all0, all1 := epoch.Add(-time.Second), epoch.Add(time.Duration(frames+probe)*interval+2*time.Second)
	sum, err := reader.RangeSummary(all0, all1)
	e.check(err == nil && sum.TotalPackets == uint64(sent),
		"wire_stream_mixed: RangeSummary().TotalPackets = %d, %v; sent %d", sum.TotalPackets, err, sent)
	e.timedLookups("wire_stream_mixed", func(s, d uint64) (uint64, bool, error) {
		return reader.RangeLookup(s, d, all0, all1)
	}, reference(in, sent, e.sz.Lookups, e.seed), nil)

	e.quantiles(len(acks), "hhgbclient.ack_p50_ms", "hhgbclient.ack_p99_ms")
	e.quantiles(len(idle), "lookup_p50_us")
	e.quantiles(len(lat[0]), "hhgbclient.range_lookup_p50_us", "hhgbclient.range_lookup_p99_us")
	e.quantiles(len(lat[1]), "hhgbclient.topk_p50_ms", "hhgbclient.topk_p95_ms")
	e.quantiles(len(lat[2]), "hhgbclient.summary_p50_ms")
	vals := map[string]float64{
		"setup_s":                        lowest(setups),
		"inserts_per_s":                  goodput,
		"lookup_p50_us":                  median(idle),
		"server.capacity_per_s":          highest(rates),
		"rss_mb":                         rss,
		"hhgbclient.ack_p50_ms":          median(acks),
		"hhgbclient.ack_p99_ms":          tail(acks, 0.99),
		"hhgbclient.range_lookup_p50_us": median(lat[0]),
		"hhgbclient.range_lookup_p99_us": tail(lat[0], 0.99),
		"hhgbclient.topk_p50_ms":         median(lat[1]),
		"hhgbclient.topk_p95_ms":         tail(lat[1], 0.95),
		"hhgbclient.summary_p50_ms":      median(lat[2]),
		"loadgen.late_share":             lateShare,
		"loadgen.max_late_ms":            percentile(sendLate, 1),
		"loadgen.blocked_share":          blocked.Seconds() / elapsed.Seconds(),
	}
	if rec != nil {
		text, err := c.scrape()
		if err != nil {
			return nil, err
		}
		serverMetrics(text, vals)
	}
	return vals, nil
}
