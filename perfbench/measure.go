package main

import (
	"fmt"
	"math"
	"math/big"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// setupReps is how many times each workload builds its whole set-up —
// inputs, Solvers, servers, warm-up operations — so that setup_s is a
// median rather than one draw. Only the last set-up is measured.
const setupReps = 3

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p90 over fewer than 100 samples is no tail.
const minBeyond = 10

// opResult is one attempted operation: its latency, the latency of its
// first certified answer (the whole operation when it delivers only
// one), the exact density it answered with, and the error or failed
// answer check that disqualifies it.
type opResult struct {
	ms      float64
	firstMs float64
	density *big.Rat
	err     error
}

// class is one kind of operation a workload issues, with every attempt.
// An untimed class runs after the timed window and adds nothing to its
// per-operation figures.
type class struct {
	name    string
	untimed bool
	ops     []*opResult
	slices  *slicer // nil for untimed classes
}

// add records an attempt and returns it, so an answer check made later
// can still fail it.
func (c *class) add(ms float64, err error) *opResult {
	r := &opResult{ms: ms, firstMs: ms, err: err}
	c.ops = append(c.ops, r)
	if c.slices != nil {
		c.slices.opDone()
	}
	return r
}

func (c *class) attempted() int { return len(c.ops) }

func (c *class) failed() int {
	n := 0
	for _, r := range c.ops {
		if r.err != nil {
			n++
		}
	}
	return n
}

// latencies returns the latency samples of the operations that did not
// fail; a failed operation adds none.
func (c *class) latencies() []float64 { return c.collect(func(r *opResult) float64 { return r.ms }) }

// firstAnswers returns the first-answer samples of the operations that
// did not fail.
func (c *class) firstAnswers() []float64 {
	return c.collect(func(r *opResult) float64 { return r.firstMs })
}

func (c *class) collect(f func(*opResult) float64) []float64 {
	var out []float64
	for _, r := range c.ops {
		if r.err == nil {
			out = append(out, f(r))
		}
	}
	return out
}

// firstErr returns the first failure of the class, for the run's log.
func (c *class) firstErr() error {
	for _, r := range c.ops {
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the p-quantile of xs by nearest rank, and whether at
// least minBeyond samples lie beyond it; a percentile without them is
// not reported.
func tail(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if n == 0 || rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	return sorted(xs)[rank-1], true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// counters is a reading of the process's own clocks: wall time, CPU time
// (user+sys from getrusage) and cumulative heap bytes allocated.
type counters struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
}

func readCounters() counters {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return counters{at: time.Now(), cpu: cpu, alloc: allocBytes()}
}

// allocBytes is the cumulative count of heap bytes allocated by the
// process. Unlike runtime.ReadMemStats it does not stop the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMiB is the process's peak resident set (getrusage ru_maxrss,
// which Linux reports in KiB), set-up included.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024
}

// sliceDur is the shortest stretch of the timed window that a per-slice
// figure is taken over.
const sliceDur = time.Second

// slice is one stretch of the timed window, from one operation's end to
// another's: its length, the process CPU time it took, and the
// operations that ended in it.
type slice struct {
	dt  time.Duration
	cpu time.Duration
	ops int
}

// slicer cuts the timed window into slices of at least sliceDur that end
// where an operation ends, so that CPU time per operation and throughput
// can be reported as medians over slices rather than as one mean that a
// stall anywhere in the window moves. Safe for concurrent use.
type slicer struct {
	mu     sync.Mutex
	active bool
	start  counters
	ops    int
	slices []slice
}

func (s *slicer) begin(c counters) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active, s.start, s.ops, s.slices = true, c, 0, nil
}

func (s *slicer) end() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active = false
}

func (s *slicer) opDone() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.active {
		return
	}
	s.ops++
	if time.Since(s.start.at) < sliceDur {
		return
	}
	c := readCounters()
	s.slices = append(s.slices, slice{dt: c.at.Sub(s.start.at), cpu: c.cpu - s.start.cpu, ops: s.ops})
	s.start, s.ops = c, 0
}

// run collects everything one benchmark run reports: set-up times, the
// operation classes, the timed window's process counters, per-layer
// figures and failed run-level checks.
type run struct {
	cfg      config
	setup    []float64 // seconds, one per set-up repetition
	classes  []*class
	window   time.Duration
	cpu      time.Duration
	alloc    uint64
	slices   slicer
	layers   map[string]float64
	problems []string
}

func newRun(cfg config) *run { return &run{cfg: cfg, layers: make(map[string]float64)} }

func (r *run) class(name string) *class {
	c := &class{name: name, slices: &r.slices}
	r.classes = append(r.classes, c)
	return c
}

// replayClass is the class of a traced run's phase replays; untraced
// runs replay nothing and have none.
func (r *run) replayClass() *class {
	if !r.cfg.trace {
		return nil
	}
	return r.class("replay")
}

func (r *run) untimedClass(name string) *class {
	c := r.class(name)
	c.untimed, c.slices = true, nil
	return c
}

// problem records a failed check that no single operation owns; it makes
// the run incorrect.
func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setUp builds the workload's state setupReps times, taking the process
// CPU time of each build, and returns the release function of the last one. build returns the
// release function of the state it made, which must also drop every
// reference to it: each build is released, and its memory collected,
// before the next starts, so the peak resident set holds one set-up.
func (r *run) setUp(build func() (release func(), err error)) (func(), error) {
	release := func() {}
	for i := 0; i < setupReps; i++ {
		release()
		runtime.GC()
		c0 := readCounters()
		rel, err := build()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		c1 := readCounters()
		r.setup = append(r.setup, (c1.cpu - c0.cpu).Seconds())
		logf("set-up %d: %.3fs CPU, %.3fs wall, peak RSS so far %.1f MiB", i+1, r.setup[i], c1.at.Sub(c0.at).Seconds(), peakRSSMiB())
		release = rel
	}
	return release, nil
}

// measure runs the timed window: loop runs whole rounds until the
// deadline it is given and returns when its last round has ended.
func (r *run) measure(loop func(deadline time.Time)) {
	runtime.GC()
	c0 := readCounters()
	r.slices.begin(c0)
	loop(c0.at.Add(time.Duration(r.cfg.seconds * float64(time.Second))))
	r.slices.end()
	c1 := readCounters()
	r.window = c1.at.Sub(c0.at)
	r.cpu = c1.cpu - c0.cpu
	r.alloc = c1.alloc - c0.alloc
}

// completed counts the operations of every timed class that did not
// fail.
func (r *run) completed() int {
	n := 0
	for _, c := range r.classes {
		if !c.untimed {
			n += c.attempted() - c.failed()
		}
	}
	return n
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd assembles the end-to-end metrics. They are taken on the
// process's own CPU clock and allocation counter, which exclude the time
// the hypervisor takes the CPU away: on the 2-vCPU VM the benchmark was
// built on, that steal time reached half of all time for minutes on end,
// and wall-clock figures of identical runs spread by up to 0.6 (quartile
// distance over median) while these spread by at most 0.12. setup_s is
// the median CPU time of the set-ups; CPU time per operation is the
// median over the window's slices (the whole window when it holds no
// full slice); allocation per operation, which repeats from operation to
// operation, is the whole window's.
func (r *run) endToEnd() map[string]metric {
	var cpu []float64
	for _, s := range r.windowSlices() {
		cpu = append(cpu, ms(s.cpu)/float64(s.ops))
	}
	return map[string]metric{
		"setup_s":          {median(r.setup), "s"},
		"cpu_ms_per_op":    {median(cpu), "ms"},
		"alloc_mib_per_op": {mib(r.alloc) / float64(r.completed()), "MiB"},
	}
}

// wallFigures records what the run's clients saw on the wall clock — the
// primary operation's median, first-answer median and p90 latency, the
// throughput over slices — and the process's peak resident set, set-up
// included. They are reported with the per-layer metrics: on a host
// that steals CPU time they move with the host rather than the program.
func (r *run) wallFigures(primary *class) {
	lat := primary.latencies()
	r.layers["client.latency_p50_ms"] = median(lat)
	r.layers["client.first_answer_ms"] = median(primary.firstAnswers())
	if p90, ok := tail(lat, 0.9); ok {
		r.layers["client.latency_p90_ms"] = p90
	}
	var rate []float64
	for _, s := range r.windowSlices() {
		rate = append(rate, float64(s.ops)/s.dt.Seconds())
	}
	r.layers["client.throughput_ops"] = median(rate)
	r.layers["process.peak_rss_mib"] = peakRSSMiB()
}

// windowSlices returns the timed window's slices, or the whole window as
// one slice when it holds no full one.
func (r *run) windowSlices() []slice {
	if len(r.slices.slices) == 0 {
		return []slice{{dt: r.window, cpu: r.cpu, ops: r.completed()}}
	}
	return r.slices.slices
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func since(t time.Time) float64 { return ms(time.Since(t)) }
