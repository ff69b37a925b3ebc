// Package memsim is a multi-level set-associative cache simulator used to
// measure — rather than assert — the paper's core argument: hierarchical
// hypersparse matrices keep the majority of update work in fast memory.
//
// The simulator models an inclusive L1/L2/L3/DRAM hierarchy with LRU
// replacement and per-level latencies. The ingest models in model.go replay
// the address patterns of flat versus hierarchical batch-merge updates
// through the simulator, producing a simulated cycles-per-update figure for
// the memory-pressure ablation (experiment E10, BenchmarkE10_MemoryPressure).
package memsim

import (
	"fmt"

	"hhgb/internal/gb"
)

// LevelSpec describes one cache level.
type LevelSpec struct {
	Name    string
	Sets    int // number of sets; must be a power of two
	Ways    int // associativity
	Line    int // line size in bytes; must be a power of two
	Latency int // access latency in cycles
}

// SizeBytes returns the level's capacity.
func (s LevelSpec) SizeBytes() int { return s.Sets * s.Ways * s.Line }

// LevelStats accumulates per-level access counts.
type LevelStats struct {
	Name   string
	Hits   int64
	Misses int64
}

// HitRate returns hits/(hits+misses), or 0 with no traffic.
func (s LevelStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type cacheLevel struct {
	spec     LevelSpec
	setShift uint
	setMask  uint64
	tags     []uint64 // sets*ways entries; 0 = empty (tag stored +1)
	use      []uint64 // LRU timestamps
	stats    LevelStats
}

func newCacheLevel(spec LevelSpec) (*cacheLevel, error) {
	if spec.Sets <= 0 || spec.Sets&(spec.Sets-1) != 0 {
		return nil, fmt.Errorf("%w: sets %d not a power of two", gb.ErrInvalidValue, spec.Sets)
	}
	if spec.Line <= 0 || spec.Line&(spec.Line-1) != 0 {
		return nil, fmt.Errorf("%w: line %d not a power of two", gb.ErrInvalidValue, spec.Line)
	}
	if spec.Ways <= 0 {
		return nil, fmt.Errorf("%w: ways %d <= 0", gb.ErrInvalidValue, spec.Ways)
	}
	shift := uint(0)
	for 1<<shift != spec.Line {
		shift++
	}
	return &cacheLevel{
		spec:     spec,
		setShift: shift,
		setMask:  uint64(spec.Sets - 1),
		tags:     make([]uint64, spec.Sets*spec.Ways),
		use:      make([]uint64, spec.Sets*spec.Ways),
		stats:    LevelStats{Name: spec.Name},
	}, nil
}

// access looks the line up, installing it on miss; returns hit.
func (c *cacheLevel) access(addr uint64, tick uint64) bool {
	line := addr >> c.setShift
	set := int(line & c.setMask)
	tag := line + 1 // +1 so 0 means "empty slot"
	base := set * c.spec.Ways
	victim := base
	oldest := c.use[base]
	for w := 0; w < c.spec.Ways; w++ {
		i := base + w
		if c.tags[i] == tag {
			c.use[i] = tick
			c.stats.Hits++
			return true
		}
		if c.use[i] < oldest || c.tags[i] == 0 {
			if c.tags[i] == 0 {
				victim = i
				oldest = 0
			} else if c.use[i] < oldest {
				victim = i
				oldest = c.use[i]
			}
		}
	}
	c.tags[victim] = tag
	c.use[victim] = tick
	c.stats.Misses++
	return false
}

// Hierarchy is a stack of cache levels over a fixed-latency memory.
type Hierarchy struct {
	levels     []*cacheLevel
	memLatency int
	memName    string
	memAccess  int64
	tick       uint64
	cycles     int64
}

// New builds a hierarchy from fastest to slowest level.
func New(specs []LevelSpec, memLatency int) (*Hierarchy, error) {
	if memLatency <= 0 {
		return nil, fmt.Errorf("%w: memory latency %d <= 0", gb.ErrInvalidValue, memLatency)
	}
	h := &Hierarchy{memLatency: memLatency, memName: "DRAM"}
	for _, s := range specs {
		lvl, err := newCacheLevel(s)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, lvl)
	}
	return h, nil
}

// Default returns a commodity-server-like hierarchy:
// 32 KiB 8-way L1 (4 cy), 256 KiB 8-way L2 (12 cy), 8 MiB 16-way L3 (40 cy)
// over 200-cycle DRAM, all with 64-byte lines.
func Default() *Hierarchy {
	h, err := New([]LevelSpec{
		{Name: "L1", Sets: 64, Ways: 8, Line: 64, Latency: 4},
		{Name: "L2", Sets: 512, Ways: 8, Line: 64, Latency: 12},
		{Name: "L3", Sets: 8192, Ways: 16, Line: 64, Latency: 40},
	}, 200)
	if err != nil {
		panic(err) // static specs; cannot fail
	}
	return h
}

// Access simulates one memory access and returns its latency in cycles.
// The first level that hits serves the access; misses propagate downward
// and install the line at every level passed (inclusive hierarchy).
func (h *Hierarchy) Access(addr uint64) int {
	h.tick++
	cycles := 0
	for _, lvl := range h.levels {
		cycles += lvl.spec.Latency
		if lvl.access(addr, h.tick) {
			h.cycles += int64(cycles)
			return cycles
		}
	}
	cycles += h.memLatency
	h.memAccess++
	h.cycles += int64(cycles)
	return cycles
}

// AccessRange simulates a sequential sweep of n bytes starting at addr
// (touching each cache line once) and returns the total cycles.
func (h *Hierarchy) AccessRange(addr uint64, n int) int64 {
	if n <= 0 {
		return 0
	}
	line := uint64(h.lineSize())
	var total int64
	end := addr + uint64(n)
	for a := addr &^ (line - 1); a < end; a += line {
		total += int64(h.Access(a))
	}
	return total
}

func (h *Hierarchy) lineSize() int {
	if len(h.levels) == 0 {
		return 64
	}
	return h.levels[0].spec.Line
}

// Stats returns per-level statistics plus a pseudo-level for memory.
func (h *Hierarchy) Stats() []LevelStats {
	out := make([]LevelStats, 0, len(h.levels)+1)
	for _, lvl := range h.levels {
		out = append(out, lvl.stats)
	}
	out = append(out, LevelStats{Name: h.memName, Hits: h.memAccess})
	return out
}

// TotalCycles returns the cumulative simulated cycles.
func (h *Hierarchy) TotalCycles() int64 { return h.cycles }

// Reset clears all cache contents and statistics.
func (h *Hierarchy) Reset() {
	for _, lvl := range h.levels {
		for i := range lvl.tags {
			lvl.tags[i] = 0
			lvl.use[i] = 0
		}
		lvl.stats = LevelStats{Name: lvl.spec.Name}
	}
	h.memAccess = 0
	h.tick = 0
	h.cycles = 0
}
