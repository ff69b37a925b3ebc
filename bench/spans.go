package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself carries no benchmark spans). Count is the number
// of entries or operations the call covered, so per-entry ratios are taken
// where the work happens.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Count    int64  `json:"count"`
}

// spanRec keeps a traced run's spans in memory until the run ends. A nil
// *spanRec is the untraced run: every method is a nil check and nothing else.
type spanRec struct {
	mu       sync.Mutex
	workload string
	t0       time.Time
	spans    []span
}

func newSpanRec(workload string) *spanRec {
	return &spanRec{workload: workload, t0: time.Now()}
}

// start opens a span under parent (0 = root) and returns its id.
func (r *spanRec) start(parent int, layer, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Workload: r.workload, Layer: layer, Name: name, StartNs: now})
	return id
}

func (r *spanRec) end(id int, count int64) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNs = now
	r.spans[id-1].Count = count
	r.mu.Unlock()
}

// total sums duration and count over the spans of one (layer, name).
func (r *spanRec) total(layer, name string) (ns, count int64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.Layer == layer && s.Name == name {
			ns += s.EndNs - s.StartNs
			count += s.Count
		}
	}
	return ns, count
}

// selfNs is each layer's self time: its spans' durations minus the part of
// each span's interval that its direct children cover. Children of one
// parent may overlap (two producers), so the cover is the union of their
// intervals, not the sum.
func (r *spanRec) selfNs() map[string]int64 {
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range r.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			if k.EndNs > edge {
				covered += k.EndNs - max(k.StartNs, edge)
				edge = k.EndNs
			}
		}
		self[s.Layer] += s.EndNs - s.StartNs - covered
	}
	return self
}

func (r *spanRec) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string           `json:"workload"`
		SelfNs   map[string]int64 `json:"self_ns_by_layer"`
		Spans    []span           `json:"spans"`
	}{r.workload, r.selfNs(), r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
