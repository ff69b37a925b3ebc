// Package metrics is a small, dependency-free instrumentation registry
// rendered in the Prometheus text exposition format (version 0.0.4, the
// format every Prometheus-compatible scraper speaks). It exists so the
// long-running deployment shape of this pipeline — the MIT SuperCloud
// GraphBLAS network monitor runs for months — can answer operational
// questions (ingest rate, seal lag, checkpoint pauses, overloaded
// connections) from any off-the-shelf dashboard, without this repo
// growing an external dependency.
//
// Three instrument kinds cover the repo's needs:
//
//   - Counter: a monotonically increasing integer (events, entries,
//     bytes). CounterFunc mirrors an existing atomic the /stats JSON
//     already maintains, so the two surfaces can never disagree.
//   - Gauge: an integer that goes both ways (queue depth, in-flight
//     budget, active windows), registered with GaugeFunc and sampled at
//     scrape time.
//   - Histogram: fixed cumulative buckets plus sum and count, for
//     latencies (fsync, checkpoint, per-op service time) and lags.
//
// Registration is idempotent: asking for an instrument that already
// exists (same name, same label set) returns the existing one, so every
// shard.Group of a window store shares one family of counters instead of
// colliding. Kind or help mismatches panic — they are programmer errors
// a test catches, not runtime conditions.
//
// All instruments are safe for concurrent use; updates are single
// atomic operations, cheap enough for per-batch (not per-entry) hot
// paths.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name="value" pair attached to an instrument at
// registration. Labels distinguish series within a family (for example
// op="insert" vs op="query" under one latency histogram).
type Label struct {
	Name, Value string
}

// L is shorthand for Label{Name: n, Value: v}.
func L(n, v string) Label { return Label{Name: n, Value: v} }

// DurationBuckets is the default histogram bucket layout for durations in
// seconds: 100µs to 10s, roughly geometric. Wide enough to place both a
// loopback insert (tens of µs land in the first bucket) and a stalled
// checkpoint; coarse enough that a scrape stays small.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// LagBuckets is the bucket layout for lag-style measurements — stream
// time behind a frontier — which range from sub-second (a healthy
// watermark chase) to hours (a stalled backfill): 100ms to 1h.
var LagBuckets = []float64{
	0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 300, 900, 3600,
}

// Instrument kinds, as rendered in # TYPE lines.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Counter is a monotonically increasing integer.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (which must be non-negative; counters only go up).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram counts observations into fixed cumulative buckets and tracks
// their sum, the Prometheus histogram contract. The implicit +Inf bucket
// always exists; Observe is two atomic adds.
type Histogram struct {
	uppers []float64 // sorted upper bounds, exclusive of +Inf
	counts []atomic.Uint64
	inf    atomic.Uint64
	sum    atomicFloat
}

// Observe records one observation. The sum is added before the count, so
// a reader that waits for a count and then reads the sum finds every
// counted observation in it.
func (h *Histogram) Observe(v float64) {
	h.sum.add(v)
	// Find the first bucket whose upper bound contains v. Linear scan:
	// bucket counts are small (16 by default) and the branch predictor
	// wins over binary search at this size.
	for i, ub := range h.uppers {
		if v <= ub {
			h.counts[i].Add(1)
			return
		}
	}
	h.inf.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	n := h.inf.Load()
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Snapshot returns the bucket upper bounds, the per-bucket (non-
// cumulative) observation counts, the +Inf bucket's count, and the sum
// of all observations. The bounds slice aliases the histogram's
// immutable configuration; the counts are a copy.
func (h *Histogram) Snapshot() (uppers []float64, counts []uint64, inf uint64, sum float64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.uppers, counts, h.inf.Load(), h.sum.load()
}

// atomicFloat is a float64 updated by CAS on its bits.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// series is one labeled instrument within a family.
type series struct {
	labels []Label // sorted by name
	sig    string  // rendered label signature, the dedup key
	c      *Counter
	h      *Histogram
}

// family is every series sharing one metric name (one HELP/TYPE pair).
type family struct {
	name, help, kind string
	series           map[string]*series
	order            []string // signatures in registration order, sorted at render
	funcs            []func() int64
	buckets          []float64 // histograms: the family-wide bucket layout
}

// Registry holds instrument families and renders them as Prometheus text.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// discard is the shared sink behind Discard.
var discard = NewRegistry()

// Discard returns a process-wide registry that is never scraped:
// components that were not handed a real registry register here, so the
// instrumented code path needs no nil checks. Instruments still count
// (two atomic ops), which profiles as noise.
func Discard() *Registry { return discard }

// OrDiscard returns r, or the shared discard registry when r is nil —
// the standard way a Config field plumbs through.
func OrDiscard(r *Registry) *Registry {
	if r == nil {
		return Discard()
	}
	return r
}

// validName reports whether s is a legal Prometheus metric or label name
// ([a-zA-Z_:][a-zA-Z0-9_:]*; labels additionally may not contain ':').
func validName(s string, label bool) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		case c == ':':
			if label {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// sig renders a sorted label set as its canonical {a="x",b="y"} signature
// (empty string for no labels).
func sig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// ensure returns the family for name, creating it with the given kind and
// help, and panics on any mismatch with a prior registration.
func (r *Registry) ensure(name, help, kind string) *family {
	if !validName(name, false) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.fams[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s already registered as %s, not %s", name, f.kind, kind))
	}
	if f.help != help {
		panic(fmt.Sprintf("metrics: %s already registered with different help text", name))
	}
	return f
}

// seriesFor returns (creating if needed) the series for the label set.
func (f *family) seriesFor(labels []Label) *series {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	for _, l := range ls {
		if !validName(l.Name, true) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l.Name, f.name))
		}
	}
	s := sig(ls)
	if sr := f.series[s]; sr != nil {
		return sr
	}
	sr := &series{labels: ls, sig: s}
	f.series[s] = sr
	f.order = append(f.order, s)
	return sr
}

// Counter returns the counter with the given name and labels, registering
// it on first use. Help text and kind must agree across registrations.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.ensure(name, help, KindCounter)
	if len(f.funcs) > 0 {
		panic(fmt.Sprintf("metrics: %s is function-backed", name))
	}
	sr := f.seriesFor(labels)
	if sr.c == nil {
		sr.c = &Counter{}
	}
	return sr.c
}

// Histogram returns the histogram with the given name, bucket upper
// bounds (ascending, seconds by convention; nil selects DurationBuckets),
// and labels, registering it on first use. Every series in a family
// shares the first registration's buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DurationBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: %s buckets not ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.ensure(name, help, KindHistogram)
	if f.buckets == nil {
		f.buckets = append([]float64(nil), buckets...)
	}
	sr := f.seriesFor(labels)
	if sr.h == nil {
		sr.h = &Histogram{uppers: f.buckets, counts: make([]atomic.Uint64, len(f.buckets))}
	}
	return sr.h
}

// CounterFunc registers a sampled counter: fn is called at scrape time
// and must be monotonically non-decreasing (typically an atomic the
// component already maintains — the /stats counters — so the two
// surfaces reconcile exactly). Multiple registrations under one name sum,
// letting several instances share a family.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.ensure(name, help, KindCounter)
	if len(f.series) > 0 {
		panic(fmt.Sprintf("metrics: %s already has direct series", name))
	}
	f.funcs = append(f.funcs, fn)
}

// GaugeFunc registers a sampled gauge; multiple registrations sum.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.ensure(name, help, KindGauge)
	if len(f.series) > 0 {
		panic(fmt.Sprintf("metrics: %s already has direct series", name))
	}
	f.funcs = append(f.funcs, fn)
}

// Family describes one registered metric family; see Families.
type Family struct {
	Name, Kind, Help string
}

// Families lists every registered family sorted by name — the schema
// surface a pinned test asserts on.
func (r *Registry) Families() []Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Family, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, Family{Name: f.name, Kind: f.kind, Help: f.help})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// formatValue renders a sample value: integral values print as integers
// (so a scrape is grep-able and diff-able), everything else in shortest
// round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTo renders the registry in Prometheus text exposition format,
// families sorted by name, series in registration order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := r.fams[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		if len(f.funcs) > 0 {
			var total int64
			for _, fn := range f.funcs {
				total += fn()
			}
			fmt.Fprintf(&b, "%s %s\n", f.name, formatValue(float64(total)))
			continue
		}
		for _, s := range f.order {
			sr := f.series[s]
			switch f.kind {
			case KindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, sr.sig, sr.c.Value())
			case KindHistogram:
				writeHistogram(&b, f, sr)
			}
		}
	}
	r.mu.Unlock()
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// writeHistogram renders one histogram series: cumulative _bucket lines
// (le merged into the series labels), then _sum and _count.
func writeHistogram(b *strings.Builder, f *family, sr *series) {
	var cum uint64
	for i, ub := range sr.h.uppers {
		cum += sr.h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, bucketSig(sr.labels, strconv.FormatFloat(ub, 'g', -1, 64)), cum)
	}
	cum += sr.h.inf.Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, bucketSig(sr.labels, "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", f.name, sr.sig, formatValue(sr.h.sum.load()))
	fmt.Fprintf(b, "%s_count%s %d\n", f.name, sr.sig, cum)
}

// bucketSig renders a series' labels with le appended.
func bucketSig(labels []Label, le string) string {
	all := append(append([]Label(nil), labels...), Label{Name: "le", Value: le})
	return sig(all)
}

// Handler serves the registry at any GET path, with the content type
// Prometheus scrapers expect.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}
