package window

import (
	"hhgb/internal/gb"
	"hhgb/internal/metrics"
)

// Metrics is the window layer's instrument set. Like shard.Metrics,
// registration is idempotent: every store wired to the same registry
// shares one set of series. The registry handed to NewMetrics is also
// kept so each store can register its sampled gauges (window counts,
// subscriber queue depth) — those are registered per store, only on a
// real registry, and sum across stores sharing it.
type Metrics struct {
	reg *metrics.Registry // nil: per-store sampling funcs are skipped

	// SealLag observes, at each seal, how far the watermark had advanced
	// past the sealed window's end — an EVENT-TIME lag (seconds of stream
	// time, not wall time): lateness budget plus however much watermark
	// motion it took to trigger the seal.
	SealLag *metrics.Histogram
	// RollUp observes the wall-clock duration of materializing one
	// roll-up window (summing its children and sealing the parent).
	RollUp *metrics.Histogram
	// SummariesPushed counts summary deliveries into subscriber queues
	// (one per subscriber per sealed window it subscribes to).
	SummariesPushed *metrics.Counter
	// SubEvictions counts subscriptions disconnected for staying full
	// past the configured patience.
	SubEvictions *metrics.Counter
}

// NewMetrics registers (or re-fetches) the window instrument set on reg.
// A nil reg wires the instruments to the discard registry and disables
// per-store gauge sampling.
func NewMetrics(reg *metrics.Registry) *Metrics {
	r := metrics.OrDiscard(reg)
	return &Metrics{
		reg: reg,
		SealLag: r.Histogram("hhgb_window_seal_lag_seconds",
			"Event-time lag between a sealed window's end and the watermark at seal.", metrics.LagBuckets),
		RollUp: r.Histogram("hhgb_window_rollup_seconds",
			"Wall-clock duration of materializing one roll-up window.", nil),
		SummariesPushed: r.Counter("hhgb_window_summaries_pushed_total",
			"Seal summaries delivered into subscriber queues."),
		SubEvictions: r.Counter("hhgb_window_subscribers_evicted_total",
			"Subscriptions evicted for staying full past the patience deadline."),
	}
}

// registerStoreFuncs registers the store's sampled series: lifecycle
// counts from Stats and live queue depths. Called once per store, after
// construction succeeds, and only with a real registry — sampling funcs
// hold the store alive, so they must never pile up on the shared discard
// registry.
func registerStoreFuncs[T gb.Number](s *Store[T]) {
	m := s.cfg.Metrics
	if m == nil || m.reg == nil {
		return
	}
	r := m.reg
	r.GaugeFunc("hhgb_window_active",
		"Level-0 windows currently accepting appends.",
		func() int64 { return int64(s.Stats().Active) })
	r.GaugeFunc("hhgb_window_sealed",
		"Sealed windows currently retained (all levels).",
		func() int64 { return int64(s.Stats().Sealed) })
	r.CounterFunc("hhgb_window_seals_total",
		"Windows sealed so far (all levels).",
		func() int64 { return s.Stats().Seals })
	r.CounterFunc("hhgb_window_rollups_total",
		"Roll-up windows materialized.",
		func() int64 { return s.Stats().RollUps })
	r.CounterFunc("hhgb_window_expired_total",
		"Windows removed by retention.",
		func() int64 { return s.Stats().Expired })
	r.CounterFunc("hhgb_window_late_drops_total",
		"Entries refused with ErrLate.",
		func() int64 { return s.Stats().LateDrops })
	r.GaugeFunc("hhgb_window_subscriber_queue_depth",
		"Summaries queued, not yet consumed, across all subscriptions.",
		func() int64 {
			s.mu.Lock()
			subs := make([]*Subscription[T], 0, len(s.subs))
			for _, sub := range s.subs {
				subs = append(subs, sub)
			}
			s.mu.Unlock()
			var n int64
			for _, sub := range subs {
				n += int64(sub.Pending())
			}
			return n
		})
	r.GaugeFunc("hhgb_shard_queue_depth",
		"Batches pending on shard queues across all active windows.",
		func() int64 {
			s.mu.Lock()
			var live []*win[T]
			for _, w := range s.wins {
				if w.state.Load() == Active {
					live = append(live, w)
				}
			}
			s.mu.Unlock()
			var n int64
			for _, w := range live {
				n += int64(w.g.QueueDepth())
			}
			return n
		})
}
