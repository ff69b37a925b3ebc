package baselines

import (
	"strconv"

	"hhgb/internal/repro/assoc"
)

// d4mKey formats an integer id the way D4M traffic-matrix scripts do:
// a fixed-width decimal string, so lexicographic key order matches numeric
// order. The formatting cost is part of what the D4M engine pays.
func d4mKey(prefix byte, id uint64) string {
	var buf [21]byte
	buf[0] = prefix
	s := strconv.AppendUint(buf[1:1], id, 10)
	// left-pad to width 20 with '0'
	pad := 20 - len(s)
	out := make([]byte, 21)
	out[0] = prefix
	for i := 1; i <= pad; i++ {
		out[i] = '0'
	}
	copy(out[1+pad:], s)
	return string(out)
}

// HierD4M is the paper's prior system [19], [24]: hierarchical D4M
// associative arrays with string row/column keys.
type HierD4M struct {
	h      *assoc.Hier
	count  int64
	closed bool
}

// DefaultD4MCuts mirrors the hierarchical D4M configuration: smaller cuts
// than the GraphBLAS cascade because each level carries string key lists.
func DefaultD4MCuts() []int { return []int{1 << 12, 1 << 16, 1 << 20} }

// NewHierD4M returns the engine; nil cuts select DefaultD4MCuts.
func NewHierD4M(cuts []int) (*HierD4M, error) {
	if cuts == nil {
		cuts = DefaultD4MCuts()
	}
	h, err := assoc.NewHier(cuts)
	if err != nil {
		return nil, err
	}
	return &HierD4M{h: h}, nil
}

// Name implements Engine.
func (e *HierD4M) Name() string { return "hier-d4m" }

// Ingest implements Engine.
func (e *HierD4M) Ingest(edges []Edge) error {
	if e.closed {
		return errClosed(e.Name())
	}
	rows := make([]string, len(edges))
	cols := make([]string, len(edges))
	vals := make([]float64, len(edges))
	for k, ed := range edges {
		rows[k] = d4mKey('r', uint64(ed.Row))
		cols[k] = d4mKey('c', uint64(ed.Col))
		vals[k] = float64(ed.Val)
	}
	if err := e.h.Update(rows, cols, vals); err != nil {
		return err
	}
	e.count += int64(len(edges))
	return nil
}

// Flush implements Engine (queries materialize on demand; nothing pending).
func (e *HierD4M) Flush() error {
	if e.closed {
		return errClosed(e.Name())
	}
	return nil
}

// Count implements Engine.
func (e *HierD4M) Count() int64 { return e.count }

// Close implements Engine.
func (e *HierD4M) Close() error {
	e.closed = true
	return nil
}

// QueryAssoc materializes the total associative array.
func (e *HierD4M) QueryAssoc() (*assoc.Assoc, error) { return e.h.Query() }
