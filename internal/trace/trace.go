// Package trace provides the IP traffic-matrix tooling the paper's
// introduction motivates: mapping IP addresses to hypersparse matrix
// indices, keyed anonymization (traffic data is sensitive), synthetic
// netflow generation, and windowed streaming into hierarchical matrices.
//
// Real network telescopes (e.g. the CAIDA darknet traces used by the
// companion papers) cannot ship with an open-source repository; the
// synthetic generator substitutes a power-law flow source with the same
// matrix-level statistics (heavy-tailed fan-in/fan-out, sparse support).
package trace

import (
	"fmt"

	"hhgb/internal/gb"
	"hhgb/internal/hier"
	"hhgb/internal/powerlaw"
)

// Flow is one observed (source, destination, packets) record.
type Flow struct {
	Src     uint32
	Dst     uint32
	Packets uint64
}

// IPv4Space is the matrix dimension covering all IPv4 addresses.
const IPv4Space gb.Index = 1 << 32

// IPv4ToIndex maps an IPv4 address to a matrix index.
func IPv4ToIndex(ip uint32) gb.Index { return gb.Index(uint64(ip)) }

// IndexToIPv4 maps a matrix index back to an IPv4 address; indices beyond
// the IPv4 space are an error.
func IndexToIPv4(i gb.Index) (uint32, error) {
	if uint64(i) >= uint64(IPv4Space) {
		return 0, fmt.Errorf("%w: index %d outside IPv4 space", gb.ErrIndexOutOfBounds, i)
	}
	return uint32(i), nil
}

// FormatIPv4 renders an address as dotted-quad.
func FormatIPv4(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Anonymizer is a keyed bijection on the IPv4 space: a 4-round Feistel
// network over 16-bit halves with a multiplicative round function. It
// preserves matrix structure (it is a permutation) while unlinking
// addresses from real hosts, the anonymization regime traffic-matrix
// archives use.
type Anonymizer struct {
	rk [4]uint32
}

// NewAnonymizer derives round keys from the given secret.
func NewAnonymizer(secret uint64) *Anonymizer {
	a := &Anonymizer{}
	x := secret
	for i := range a.rk {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		a.rk[i] = uint32(x)
	}
	return a
}

func feistelRound(half uint32, key uint32) uint32 {
	x := half*0x9e3779b1 + key
	x ^= x >> 15
	x *= 0x85ebca77
	x ^= x >> 13
	return x & 0xffff
}

// Anon maps an address to its pseudonym.
func (a *Anonymizer) Anon(ip uint32) uint32 {
	l, r := ip>>16, ip&0xffff
	for i := 0; i < 4; i++ {
		l, r = r, l^feistelRound(r, a.rk[i])
	}
	return l<<16 | r
}

// Deanon inverts Anon under the same key.
func (a *Anonymizer) Deanon(ip uint32) uint32 {
	l, r := ip>>16, ip&0xffff
	for i := 3; i >= 0; i-- {
		l, r = r^feistelRound(l, a.rk[i]), l
	}
	return l<<16 | r
}

// Generator produces synthetic netflow with power-law source and
// destination popularity and heavy-tailed packet counts.
type Generator struct {
	pairs *powerlaw.PairSampler
	pkts  *powerlaw.BoundedPareto
	anon  *Anonymizer
}

// NewGenerator returns a seeded flow generator. Generated addresses are
// passed through a keyed permutation so they spread over the full IPv4
// space the way real (anonymized) telescope data does.
func NewGenerator(seed uint64) (*Generator, error) {
	pairs, err := powerlaw.NewParetoPairs(IPv4Space, 1.1, seed)
	if err != nil {
		return nil, err
	}
	pkts, err := powerlaw.NewBoundedPareto(1<<16, 1.3, seed^0x00c0ffee)
	if err != nil {
		return nil, err
	}
	return &Generator{pairs: pairs, pkts: pkts, anon: NewAnonymizer(seed ^ 0xa11ce)}, nil
}

// Next produces one flow.
func (g *Generator) Next() Flow {
	e := g.pairs.Edge()
	return Flow{
		Src:     g.anon.Anon(uint32(uint64(e.Row))),
		Dst:     g.anon.Anon(uint32(uint64(e.Col))),
		Packets: uint64(g.pkts.Next()) + 1,
	}
}

// Batch produces n flows.
func (g *Generator) Batch(n int) []Flow {
	out := make([]Flow, n)
	for k := range out {
		out[k] = g.Next()
	}
	return out
}

// Window accumulates flows into per-window hierarchical traffic matrices:
// the streaming-analysis loop of the paper's motivating application.
// After every FlowsPerWindow flows the current matrix is finalized and a
// fresh one begins.
type Window struct {
	FlowsPerWindow int
	cfg            hier.Config
	current        *hier.Matrix[uint64]
	inWindow       int
	completed      []*gb.Matrix[uint64]
	rows           []gb.Index
	cols           []gb.Index
	vals           []uint64
}

// NewWindow returns a windowed accumulator; cfg configures each window's
// cascade.
func NewWindow(flowsPerWindow int, cfg hier.Config) (*Window, error) {
	if flowsPerWindow < 1 {
		return nil, fmt.Errorf("%w: flows per window %d < 1", gb.ErrInvalidValue, flowsPerWindow)
	}
	cur, err := hier.New[uint64](IPv4Space, IPv4Space, cfg)
	if err != nil {
		return nil, err
	}
	return &Window{FlowsPerWindow: flowsPerWindow, cfg: cfg, current: cur}, nil
}

// Observe streams one batch of flows, rotating windows as they fill.
func (w *Window) Observe(flows []Flow) error {
	for start := 0; start < len(flows); {
		room := w.FlowsPerWindow - w.inWindow
		end := start + room
		if end > len(flows) {
			end = len(flows)
		}
		chunk := flows[start:end]
		w.rows = w.rows[:0]
		w.cols = w.cols[:0]
		w.vals = w.vals[:0]
		for _, f := range chunk {
			w.rows = append(w.rows, IPv4ToIndex(f.Src))
			w.cols = append(w.cols, IPv4ToIndex(f.Dst))
			w.vals = append(w.vals, f.Packets)
		}
		if err := w.current.Update(w.rows, w.cols, w.vals); err != nil {
			return err
		}
		w.inWindow += len(chunk)
		start = end
		if w.inWindow >= w.FlowsPerWindow {
			if err := w.rotate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// rotate finalizes the current window.
func (w *Window) rotate() error {
	total, err := w.current.Flush()
	if err != nil {
		return err
	}
	w.completed = append(w.completed, total.Dup())
	next, err := hier.New[uint64](IPv4Space, IPv4Space, w.cfg)
	if err != nil {
		return err
	}
	w.current = next
	w.inWindow = 0
	return nil
}

// Completed returns the finalized window matrices so far.
func (w *Window) Completed() []*gb.Matrix[uint64] { return w.completed }
