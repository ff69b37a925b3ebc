package main

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hhgb/internal/powerlaw"
)

// sizes are the workload constants. They are frozen: two results files are
// comparable only when every field is equal, and -compare checks that.
type sizes struct {
	Div            int // every size below was divided by this; 1 is a measurement
	SetSize        int // entries per Append in the library workload (the paper's sets)
	LibEdges       int // lib_ingest: entries per cycle into a fresh store
	FrameEntries   int // wire_durable / read_only: entries per Append call (one client frame)
	DurableEdges   int // wire_durable: entries per timed ingest
	DurableTail    int // wire_durable: entries appended after the checkpoint, before the kill
	StreamFrame    int // wire_stream_mixed: entries per AppendAt frame
	StreamFrames   int // wire_stream_mixed: frames per second (open loop)
	StreamLookups  int // wire_stream_mixed: RangeLookup per 10 seconds
	StreamTopK     int // wire_stream_mixed: RangeTopSources(10) per 10 seconds
	StreamSummary  int // wire_stream_mixed: RangeSummary per 10 seconds
	StreamTrailing int // wire_stream_mixed: seconds of trailing range each read covers
	StreamProbe    int // wire_stream_mixed: seconds of schedule the closed-loop capacity probe replays (one roll-up period)
	ReadPreload    int // read_only: entries preloaded during set-up
	Lookups        int // sampled lookups checked against the reference, per cycle
	Setups         int // set-ups per run on workloads that time one long section
	GBEdges        int // layer replay: entries fed to the flat gb matrix
}

// sizesFor returns the frozen constants divided by div (1 for a real run;
// the smoke test uses 200).
func sizesFor(div int) sizes {
	s := sizes{
		Div:            max(div, 1),
		SetSize:        100_000,
		LibEdges:       8_000_000,
		FrameEntries:   4096,
		DurableEdges:   4_000_000,
		DurableTail:    400_000,
		StreamFrame:    8,
		StreamFrames:   25_000,
		StreamLookups:  1000,
		StreamTopK:     30,
		StreamSummary:  4,
		StreamTrailing: 2,
		StreamProbe:    10,
		ReadPreload:    1_000_000,
		Lookups:        1000,
		Setups:         5,
		GBEdges:        4_000_000,
	}
	if div > 1 {
		s.SetSize /= div
		s.LibEdges /= div
		s.DurableEdges /= div
		s.DurableTail /= div
		s.StreamFrames /= div
		s.ReadPreload /= div
		s.GBEdges /= div
		s.Lookups = 100
	}
	return s
}

// env is one benchmark process: where it builds and writes, what it has
// started, and how many operations it attempted and saw fail.
type env struct {
	sz       sizes
	seed     uint64
	seconds  time.Duration
	serveBin string // built hhgb-serve; empty until a wire workload needs it
	srcDir   string // the benchmark's own directory, inside the module
	outDir   string // results.json and trace files
	tmpDir   string // scratch under outDir, removed on exit

	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	children []*child
	samples  map[string]int // sample count behind each percentile of the last pass
}

// quantiles records how many samples stand behind the named percentiles, so
// every report can state the count next to the percentile.
func (e *env) quantiles(n int, names ...string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.samples == nil {
		e.samples = make(map[string]int)
	}
	for _, name := range names {
		e.samples[name] = n
	}
}

// check counts one attempted operation or verification; unless ok it
// counts it as failed too and says why on standard error.
func (e *env) check(ok bool, format string, args ...any) {
	e.attempted.Add(1)
	if !ok {
		e.failed.Add(1)
		fmt.Fprintf(os.Stderr, "bench: FAILED: "+format+"\n", args...)
	}
}

// cleanup kills every child still running and removes the scratch directory.
func (e *env) cleanup() {
	e.mu.Lock()
	kids := e.children
	e.children = nil
	e.mu.Unlock()
	for _, c := range kids {
		c.kill()
	}
	os.RemoveAll(e.tmpDir)
}

// stream is the generated input: one seeded, non-repeating R-MAT edge
// stream (scale 32, the paper's IPv4-sized vertex space) in sets of setSize.
// The program under test only ever sees these slices.
type stream struct {
	src, dst []uint64
	setSize  int
	genNs    float64 // generator wall time per entry, on two goroutines
}

// generate draws at least n entries from the stream family of seed. Sets are
// independent under powerlaw.StreamSpec, so two goroutines fill them.
func generate(seed uint64, n, setSize int) (*stream, error) {
	sets := (n + setSize - 1) / setSize
	spec := powerlaw.StreamSpec{TotalEdges: sets * setSize, SetSize: setSize, Scale: 32, Seed: seed}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	st := &stream{src: make([]uint64, sets*setSize), dst: make([]uint64, sets*setSize), setSize: setSize}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := p; k < sets && errs[p] == nil; k += 2 {
				errs[p] = spec.FillSet(k, st.src[k*setSize:(k+1)*setSize], st.dst[k*setSize:(k+1)*setSize])
			}
		}(p)
	}
	wg.Wait()
	st.genNs = float64(time.Since(start).Nanoseconds()) / float64(sets*setSize)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

type pair struct{ src, dst uint64 }

// refs is the reference for sampled lookups: the pairs to ask, in order, and
// the weight a correct store holds for each.
type refs struct {
	pairs []pair
	want  map[pair]uint64
}

// reference samples k entries of st[:n] and counts, over the whole prefix,
// how often each sampled pair occurs: the map[(src,dst)]weight a correct
// store must answer from, restricted to the pairs that will be asked.
func reference(st *stream, n, k int, seed uint64) refs {
	rng := rand.New(rand.NewPCG(seed, 0x6868676262656e63))
	pairs := make([]pair, k)
	want := make(map[pair]uint64, k)
	for i := range pairs {
		j := rng.IntN(n)
		pairs[i] = pair{st.src[j], st.dst[j]}
		want[pairs[i]] = 0
	}
	for i := 0; i < n; i++ {
		p := pair{st.src[i], st.dst[i]}
		if _, ok := want[p]; ok {
			want[p]++
		}
	}
	return refs{pairs, want}
}

// topSources is the reference top-k: the k largest per-source totals of
// st[:n], largest first. Ties are compared by value only.
func topSources(st *stream, n, k int) []uint64 {
	sums := make(map[uint64]uint64)
	for _, s := range st.src[:n] {
		sums[s]++
	}
	vals := make([]uint64, 0, len(sums))
	for _, v := range sums {
		vals = append(vals, v)
	}
	slices.SortFunc(vals, func(a, b uint64) int { return cmp.Compare(b, a) })
	return vals[:min(k, len(vals))]
}

// child is one hhgb-serve process started by the benchmark.
type child struct {
	cmd     *exec.Cmd
	addr    string // wire address, from the readiness line
	metrics string // /metrics URL when started with -metrics
	stderr  bytes.Buffer
	done    chan struct{}
}

// traceFlags turn on the server's own stage histograms for the traced run.
var traceFlags = []string{"-stats", "127.0.0.1:0", "-metrics", "-trace-sample", "1", "-slow-query", "1ns"}

// startChild execs hhgb-serve on an ephemeral port and returns once it
// printed its readiness line (and, with -metrics, the metrics line).
func (e *env) startChild(traced bool, args ...string) (*child, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	if traced {
		args = append(args, traceFlags...)
	}
	cmd := exec.Command(e.serveBin, args...)
	c := &child{cmd: cmd, done: make(chan struct{})}
	cmd.Stderr = &c.stderr
	// The child must not outlive the benchmark even if the benchmark is
	// killed: the kernel signals it when this process dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", e.serveBin, err)
	}
	e.mu.Lock()
	e.children = append(e.children, c)
	e.mu.Unlock()
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(out)
		reported := false
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "listening on "); ok {
				c.addr = a
			}
			if u, ok := strings.CutPrefix(line, "metrics on "); ok {
				c.metrics = u
			}
			if !reported && c.addr != "" && (!traced || c.metrics != "") {
				reported = true
				ready <- nil
			}
		}
		if !reported {
			cmd.Wait()
			ready <- fmt.Errorf("hhgb-serve %v exited before it was ready: %s", args, c.stderr.String())
		} else {
			cmd.Wait()
		}
		close(c.done)
	}()
	select {
	case err := <-ready:
		if err != nil {
			c.kill()
			return nil, err
		}
	case <-time.After(60 * time.Second):
		c.kill()
		return nil, fmt.Errorf("hhgb-serve %v not ready after 60s", args)
	}
	return c, nil
}

// kill sends SIGKILL and waits until the process has ended.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.done
}

// rssSampler reads a process's resident set every 10 ms and keeps the mean.
// The mean over a timed section is what rss_mb reports: the peak (VmHWM) of
// a garbage-collected process depends on where in a collection cycle the
// section happened to end, and swung by a quarter from run to run.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	sum  float64
	n    int
}

// residentMiB reads a process's resident set from /proc; 0 if it is gone.
func residentMiB(pid int) float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/statm")
	if f := strings.Fields(string(data)); err == nil && len(f) > 1 {
		pages, _ := strconv.ParseFloat(f[1], 64)
		return pages * float64(os.Getpagesize()) / (1 << 20)
	}
	return 0
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if mib := residentMiB(pid); mib > 0 {
				s.sum += mib
				s.n++
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// meanMiB stops the sampler and returns the mean resident set it saw.
func (s *rssSampler) meanMiB() float64 {
	close(s.stop)
	<-s.done
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// scrape fetches the child's Prometheus exposition.
func (c *child) scrape() (string, error) {
	resp, err := http.Get(c.metrics)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
