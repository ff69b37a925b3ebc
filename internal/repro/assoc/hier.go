package assoc

import (
	"fmt"

	"hhgb/internal/gb"
)

// Hier is the hierarchical associative array of Reuther et al. (HPEC 2018)
// and Kepner et al. (HPEC 2019): the same N-level cut-and-cascade scheme as
// internal/hier, but over string-keyed D4M associative arrays. It is the
// "Hierarchical D4M" baseline curve of the paper's Fig. 2.
type Hier struct {
	cuts   []int
	levels []*Assoc
	// stats
	updates  int64
	batches  int64
	cascades []int64
}

// NewHier returns an empty hierarchical associative array with the given
// cuts (len(cuts)+1 levels; nil cuts mean a single flat level).
func NewHier(cuts []int) (*Hier, error) {
	for i, c := range cuts {
		if c < 1 {
			return nil, fmt.Errorf("%w: cut %d is %d; cuts must be >= 1", gb.ErrInvalidValue, i, c)
		}
	}
	n := len(cuts) + 1
	h := &Hier{cuts: append([]int(nil), cuts...), cascades: make([]int64, n)}
	for i := 0; i < n; i++ {
		h.levels = append(h.levels, New())
	}
	return h, nil
}

// Update ingests a batch of string triples: A1 = A1 + A, then cascades any
// level whose entry count exceeds its cut.
func (h *Hier) Update(rows, cols []string, vals []float64) error {
	batch, err := FromTriples(rows, cols, vals)
	if err != nil {
		return err
	}
	sum, err := Add(h.levels[0], batch)
	if err != nil {
		return err
	}
	h.levels[0] = sum
	h.updates += int64(len(rows))
	h.batches++
	return h.cascade()
}

func (h *Hier) cascade() error {
	for i := 0; i < len(h.cuts); i++ {
		if h.levels[i].NNZ() <= h.cuts[i] {
			return nil
		}
		up, err := Add(h.levels[i+1], h.levels[i])
		if err != nil {
			return err
		}
		h.levels[i+1] = up
		h.levels[i] = New()
		h.cascades[i]++
	}
	return nil
}

// Query materializes the total associative array Σ Ai without disturbing
// the cascade state.
func (h *Hier) Query() (*Assoc, error) {
	total := New()
	for _, lvl := range h.levels {
		sum, err := Add(total, lvl)
		if err != nil {
			return nil, err
		}
		total = sum
	}
	return total, nil
}

// NNZ returns the number of distinct entries across the hierarchy.
func (h *Hier) NNZ() (int, error) {
	q, err := h.Query()
	if err != nil {
		return 0, err
	}
	return q.NNZ(), nil
}

// Updates returns the cumulative number of entries ingested.
func (h *Hier) Updates() int64 { return h.updates }
