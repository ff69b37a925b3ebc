package gb

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"hhgb/internal/pool"
)

// ParallelFoldMin is the fewest stored entries, summed over a fold's
// parts, that FoldRanges splits across cores. Below it a fold takes well
// under a millisecond, a goroutine hand-off would cost a visible share of
// that, and the fold runs serially on its caller with no goroutine
// started.
const ParallelFoldMin = 64 << 10

// FoldRanges returns how many disjoint index ranges a fold over parts
// should be split into: runtime.GOMAXPROCS(0) once the parts hold at least
// ParallelFoldMin entries between them, and 1 (serial) below that.
func FoldRanges[T Number](parts []*Vector[T]) int {
	n := 0
	for _, p := range parts {
		if p != nil {
			n += p.NVals()
		}
	}
	if n < ParallelFoldMin {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// AppendSplit cuts the index space of the index-sorted parts into at most
// n disjoint ranges and appends their bounds to dst: range r is the
// half-open [b[r], b[r+1]) of the appended b, the first starting at 0 and
// the last ending at the largest Index, which no vector can store. The
// inner bounds are the longest part's n-quantiles, so each range holds
// about an n-th of it; fewer ranges come back when that part has fewer
// than n entries. Together the ranges cover every index exactly once, so
// folding each range with VecFoldRange and combining the results in range
// order visits exactly what one VecFold over the parts visits.
func AppendSplit[T Number](dst []Index, parts []*Vector[T], n int) []Index {
	var longest []Index
	for _, p := range parts {
		if p == nil {
			continue
		}
		p.Wait()
		if len(p.idx) > len(longest) {
			longest = p.idx
		}
	}
	n = max(min(n, len(longest)), 1)
	dst = append(dst, 0)
	for r := 1; r < n; r++ {
		// Quantile positions r·m/n are strictly increasing for n <= m, and
		// so are the indices stored there.
		dst = append(dst, longest[r*len(longest)/n])
	}
	return append(dst, ^Index(0))
}

// VecNValsRange returns how many entries the parts store in [lo, hi),
// summed over the parts: an upper bound on the distinct indices a
// VecFoldRange over them visits.
func VecNValsRange[T Number](parts []*Vector[T], lo, hi Index) int {
	n := 0
	for _, p := range parts {
		if p == nil {
			continue
		}
		a, b := p.span(lo, hi)
		n += b - a
	}
	return n
}

// span returns the positions [a, b) of v's stored indices that lie in
// [lo, hi), materializing pending updates first.
func (v *Vector[T]) span(lo, hi Index) (int, int) {
	v.Wait()
	a, _ := slices.BinarySearch(v.idx, lo)
	b, _ := slices.BinarySearch(v.idx, hi)
	return a, b
}

// ParallelFor calls f(0), …, f(n-1), each exactly once, and returns when
// every call has returned. The calls run on the caller and on whichever
// helper goroutines are idle at the moment: each of them claims the next
// unclaimed r until none is left, so concurrent ParallelFor calls never
// wait for one another — a range no helper takes runs on its caller. The
// helpers are started on first need, n-1 for the largest n asked for so
// far, and stay parked for the life of the process. A goroutine started
// per call would take its descriptor from the calling P's free list and
// allocate one when that list is empty, which it often is when the
// previous call's goroutines exited on other Ps: a warm read would then
// allocate up to n-1 more objects, at random.
func ParallelFor(n int, f func(r int)) {
	if n <= 1 {
		if n == 1 {
			f(0)
		}
		return
	}
	startHelpers(n - 1)
	job := jobs.Get()
	job.n, job.f = n, f
	for range n - 1 {
		job.wg.Add(1)
		select {
		case helpers.work <- job:
		default: // every helper is busy
			job.wg.Done()
		}
	}
	job.claim()
	job.wg.Wait()
	*job = parallelJob{} // drop f: it holds the caller's data
	jobs.Put(job)
}

// parallelJob is one ParallelFor call's shared state.
type parallelJob struct {
	n    int
	f    func(r int)
	next atomic.Int64
	wg   sync.WaitGroup // helpers that took the job
}

// claim runs the job's unclaimed calls until none is left.
func (j *parallelJob) claim() {
	for r := int(j.next.Add(1) - 1); r < j.n; r = int(j.next.Add(1) - 1) {
		j.f(r)
	}
}

// jobs recycles finished jobs: a ParallelFor call allocates only what its
// caller's f captures.
var jobs = pool.New(64, func() *parallelJob { return new(parallelJob) })

// helpers is ParallelFor's pool: an unbuffered channel, so a hand-off
// succeeds only to a helper parked on it.
var helpers = struct {
	work    chan *parallelJob
	mu      sync.Mutex
	started int
}{work: make(chan *parallelJob)}

// startHelpers grows the pool to at least n helpers.
func startHelpers(n int) {
	helpers.mu.Lock()
	defer helpers.mu.Unlock()
	for ; helpers.started < n; helpers.started++ {
		go func() {
			for j := range helpers.work {
				j.claim()
				j.wg.Done()
			}
		}()
	}
}
