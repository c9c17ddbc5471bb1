package main

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"floatfl/internal/checkpoint"
	"floatfl/internal/device"
	"floatfl/internal/fl"
	"floatfl/internal/obs"
	"floatfl/internal/opt"
	"floatfl/internal/selection"
	"floatfl/internal/tensor"
)

// callKind names an engine→seam call recorded inside one round.
type callKind uint8

const (
	callSelect callKind = iota
	callDecide
	callObserve
	callFeedback
	callLogClient
	callLogSummary
	callSnapshot
)

var callNames = [...][2]string{
	callSelect:     {"selection", "select"},
	callDecide:     {"core", "decide"},
	callObserve:    {"selection", "observe"},
	callFeedback:   {"core", "feedback"},
	callLogClient:  {"fl", "log_client"},
	callLogSummary: {"fl", "log_summary"},
	callSnapshot:   {"checkpoint", "snapshot"},
}

type call struct {
	kind       callKind
	start, end int64
}

// lap is the measurement state of one set-up plus one engine run. The
// engines reach it only through the seams below, all on the engine
// goroutine; dist-loopback's driver calls begin and boundary itself.
type lap struct {
	idx   int
	async bool      // flat interval spans instead of sync phases
	rec   *recorder // nil on an untraced lap

	t0       time.Time // set-up start
	started  bool
	start    time.Time // first engine call into a seam: set-up is over
	finished bool
	// Counters as of begin, turned into the lap's totals by finish.
	cpu0, steal0       time.Duration
	alloc0             uint64
	kernelN0, kernelB0 int64

	// What finish leaves behind: seconds of set-up, of the timed phase
	// (first seam call → engine return), of process CPU and of hypervisor
	// steal in it; bytes allocated, kernel calls and kernel seconds in it.
	setupS, timedS, cpuS, stealS float64
	allocB                       float64
	kernelN                      int64
	kernelS                      float64
	out                          outcome

	bounds   []int64 // round boundary stamps; bounds[0] is start
	heapPeak uint64
	lastStop int64 // end of the latest boundary hook: where a snapshot begins

	calls []call // seam calls of the round in flight (traced laps)

	// What single workloads leave behind for the per-layer metrics.
	snapBytes                 []int
	lastSnapshot              []byte
	obsReg                    *obs.Registry
	obsTracer                 *obs.Tracer
	cacheLookups, cacheMisses int64
	dist                      *distTrace
}

func newLap(idx int, async bool, rec *recorder) *lap {
	return &lap{idx: idx, async: async, rec: rec, t0: now()}
}

// readHeap returns cumulative allocated bytes and the live heap as of the
// last completed GC mark.
func readHeap() (allocs, live uint64) {
	s := [2]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime is the time the hypervisor has so far kept runnable virtual
// CPUs of this machine waiting, from the first line of /proc/stat (in
// USER_HZ ticks of 10 ms); 0 where the kernel does not account for it.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// begin marks the end of set-up: the first call an engine makes into a
// benchmark-supplied selector or controller (or the driver's first Step).
func (l *lap) begin() {
	if l.started {
		return
	}
	l.started = true
	l.cpu0, l.steal0 = cpuTime(), stealTime()
	l.alloc0, _ = readHeap()
	l.kernelN0, l.kernelB0 = kernelCalls.Load(), kernelBusyNS.Load()
	l.start = now()
	l.setupS = l.start.Sub(l.t0).Seconds()
	l.bounds = append(l.bounds, int64(l.start.Sub(epoch)))
	l.lastStop = l.bounds[0]
}

// finish closes the lap's timed phase: the engine has returned.
func (l *lap) finish() {
	if l.finished || !l.started {
		return
	}
	l.finished = true
	l.timedS = now().Sub(l.start).Seconds()
	l.cpuS = (cpuTime() - l.cpu0).Seconds()
	l.stealS = (stealTime() - l.steal0).Seconds()
	allocs, _ := readHeap()
	l.allocB = float64(allocs - l.alloc0)
	l.kernelN = kernelCalls.Load() - l.kernelN0
	l.kernelS = float64(kernelBusyNS.Load()-l.kernelB0) / 1e9
}

// boundary is the body of CheckpointConfig.Stop: the engines poll it once
// per round (sync) or aggregation (async), at their quiescent point.
func (l *lap) boundary() bool {
	t := stamp()
	prev := l.bounds[len(l.bounds)-1]
	l.bounds = append(l.bounds, t)
	if _, live := readHeap(); live > l.heapPeak {
		l.heapPeak = live
	}
	if l.rec != nil {
		l.flush(len(l.bounds)-2, prev, t)
	}
	l.lastStop = stamp()
	return false
}

// sink is CheckpointConfig.Sink: it takes the snapshot's size and, on a
// traced lap, its duration since the boundary hook that triggered it.
func (l *lap) sink(b []byte) error {
	l.snapBytes = append(l.snapBytes, len(b))
	if l.rec != nil {
		l.calls = append(l.calls, call{callSnapshot, l.lastStop, stamp()})
		l.lastSnapshot = b
	}
	return nil
}

// intervals returns the real seconds between consecutive boundaries.
func (l *lap) intervals() []float64 {
	out := make([]float64, 0, len(l.bounds))
	for i := 1; i < len(l.bounds); i++ {
		out = append(out, float64(l.bounds[i]-l.bounds[i-1])/1e9)
	}
	return out
}

// timed records one seam call on a traced lap.
func (l *lap) timed(kind callKind, start int64) {
	l.calls = append(l.calls, call{kind, start, stamp()})
}

// flush turns the finished round's calls into spans. A sync round is tiled
// by five phases cut at the seam calls; an async aggregation interval has
// no such order, so its calls hang directly under the interval span.
func (l *lap) flush(round int, rs, re int64) {
	r := l.rec
	calls := l.calls
	l.calls = l.calls[:0]
	name := "round"
	if l.async {
		name = "interval"
	}
	root := r.add("fl", name, l.idx, round, rs, re, -1)
	parentOf := func(callKind) int { return root }
	if !l.async {
		var selEnd, lastDecide, firstObserve, lastLog int64
		for _, c := range calls {
			switch c.kind {
			case callSelect:
				selEnd = c.end
			case callDecide:
				lastDecide = c.end
			case callObserve:
				if firstObserve == 0 {
					firstObserve = c.start
				}
			case callLogClient:
				lastLog = c.end
			}
		}
		if selEnd != 0 && lastDecide != 0 && firstObserve != 0 && lastLog != 0 {
			sel := r.add("fl", "select_phase", l.idx, round, rs, selEnd, root)
			dis := r.add("fl", "dispatch", l.idx, round, selEnd, lastDecide, root)
			r.add("fl", "fanout", l.idx, round, lastDecide, firstObserve, root)
			col := r.add("fl", "collect", l.idx, round, firstObserve, lastLog, root)
			clo := r.add("fl", "close", l.idx, round, lastLog, re, root)
			parentOf = func(k callKind) int {
				switch k {
				case callSelect, callSnapshot:
					return sel
				case callDecide:
					return dis
				case callLogSummary:
					return clo
				}
				return col
			}
		}
	}
	for _, c := range calls {
		n := callNames[c.kind]
		r.add(n[0], n[1], l.idx, round, c.start, c.end, parentOf(c.kind))
	}
}

// statefulLazySelector is what every built-in selector is: the engines
// assert on the two optional interfaces, so the seam must carry both.
type statefulLazySelector interface {
	selection.LazySelector
	checkpoint.Stateful
}

// selSeam passes every selector call through, marking the end of set-up
// on the first one and timing each on a traced lap.
type selSeam struct {
	inner statefulLazySelector
	lap   *lap
}

func (s *selSeam) Name() string { return s.inner.Name() }

func (s *selSeam) Select(info selection.RoundInfo, pool []*device.Client, k int) []int {
	s.lap.begin()
	if s.lap.rec == nil {
		return s.inner.Select(info, pool, k)
	}
	t := stamp()
	ids := s.inner.Select(info, pool, k)
	s.lap.timed(callSelect, t)
	return ids
}

func (s *selSeam) SelectLazy(info selection.RoundInfo, view selection.PopulationView, k int) []int {
	s.lap.begin()
	if s.lap.rec == nil {
		return s.inner.SelectLazy(info, view, k)
	}
	t := stamp()
	ids := s.inner.SelectLazy(info, view, k)
	s.lap.timed(callSelect, t)
	return ids
}

func (s *selSeam) Observe(fb selection.Feedback) {
	if s.lap.rec == nil {
		s.inner.Observe(fb)
		return
	}
	t := stamp()
	s.inner.Observe(fb)
	s.lap.timed(callObserve, t)
}

func (s *selSeam) CheckpointState() ([]byte, error)    { return s.inner.CheckpointState() }
func (s *selSeam) RestoreCheckpoint(data []byte) error { return s.inner.RestoreCheckpoint(data) }

// ctrlSeam passes every controller call through. It always offers the two
// optional interfaces the engines assert on and forwards them when the
// wrapped controller has them; for a controller without them the
// forwarded answer (no series, no state) is what the engine would have
// assumed anyway.
type ctrlSeam struct {
	inner fl.Controller
	lap   *lap
}

func (c *ctrlSeam) Name() string { return c.inner.Name() }

func (c *ctrlSeam) Decide(round int, cl *device.Client, res device.Resources, hf float64) opt.Technique {
	c.lap.begin()
	if c.lap.rec == nil {
		return c.inner.Decide(round, cl, res, hf)
	}
	t := stamp()
	tech := c.inner.Decide(round, cl, res, hf)
	c.lap.timed(callDecide, t)
	return tech
}

func (c *ctrlSeam) Feedback(round int, cl *device.Client, tech opt.Technique, out device.Outcome, acc float64) {
	if c.lap.rec == nil {
		c.inner.Feedback(round, cl, tech, out, acc)
		return
	}
	t := stamp()
	c.inner.Feedback(round, cl, tech, out, acc)
	c.lap.timed(callFeedback, t)
}

func (c *ctrlSeam) TimelineSeries() []obs.SeriesValue {
	if tc, ok := c.inner.(fl.TimelineContributor); ok {
		return tc.TimelineSeries()
	}
	return nil
}

func (c *ctrlSeam) CheckpointState() ([]byte, error) {
	if s, ok := c.inner.(checkpoint.Stateful); ok {
		return s.CheckpointState()
	}
	return nil, nil
}

func (c *ctrlSeam) RestoreCheckpoint(data []byte) error {
	if s, ok := c.inner.(checkpoint.Stateful); ok {
		return s.RestoreCheckpoint(data)
	}
	return nil
}

// logSeam times the engine's logger calls; it is installed on traced laps
// only, around whatever logger the workload uses.
type logSeam struct {
	inner fl.RoundLogger
	lap   *lap
}

func (g *logSeam) LogClientRound(rec fl.ClientRoundLog) {
	t := stamp()
	g.inner.LogClientRound(rec)
	g.lap.timed(callLogClient, t)
}

func (g *logSeam) LogRoundSummary(rec fl.RoundSummaryLog) {
	t := stamp()
	g.inner.LogRoundSummary(rec)
	g.lap.timed(callLogSummary, t)
}

// Kernel time is counted, not spanned: a lap makes millions of calls.
var (
	kernelCalls  atomic.Int64
	kernelBusyNS atomic.Int64
)

// countingBackend is a pass-through tensor.Backend registered beside the
// backend it wraps; traced laps train on it.
type countingBackend struct {
	inner tensor.Backend
}

func init() {
	for _, name := range []string{"ref", "fast"} {
		be, err := tensor.Lookup(name)
		if err != nil {
			panic(err)
		}
		tensor.Register(countingBackend{be})
	}
}

func kernelDone(start int64) {
	kernelBusyNS.Add(stamp() - start)
	kernelCalls.Add(1)
}

func (b countingBackend) Name() string  { return "traced-" + b.inner.Name() }
func (b countingBackend) Batched() bool { return b.inner.Batched() }

func (b countingBackend) Dot(x, y tensor.Vector) float64 {
	defer kernelDone(stamp())
	return b.inner.Dot(x, y)
}

func (b countingBackend) AddScaled(dst tensor.Vector, alpha float64, w tensor.Vector) {
	defer kernelDone(stamp())
	b.inner.AddScaled(dst, alpha, w)
}

func (b countingBackend) ScaledDiff(dst tensor.Vector, alpha float64, x, y tensor.Vector) {
	defer kernelDone(stamp())
	b.inner.ScaledDiff(dst, alpha, x, y)
}

func (b countingBackend) AddWeighted(dst tensor.Vector, weights []float64, vecs []tensor.Vector) {
	defer kernelDone(stamp())
	b.inner.AddWeighted(dst, weights, vecs)
}

func (b countingBackend) MatVec(m *tensor.Matrix, dst, x tensor.Vector) {
	defer kernelDone(stamp())
	b.inner.MatVec(m, dst, x)
}

func (b countingBackend) MatVecT(m *tensor.Matrix, dst, x tensor.Vector) {
	defer kernelDone(stamp())
	b.inner.MatVecT(m, dst, x)
}

func (b countingBackend) AddOuterScaled(m *tensor.Matrix, alpha float64, x, y tensor.Vector) {
	defer kernelDone(stamp())
	b.inner.AddOuterScaled(m, alpha, x, y)
}

func (b countingBackend) MatMulNT(dst, x, y *tensor.Matrix) {
	defer kernelDone(stamp())
	b.inner.MatMulNT(dst, x, y)
}

func (b countingBackend) MatMulNN(dst, x, y *tensor.Matrix) {
	defer kernelDone(stamp())
	b.inner.MatMulNN(dst, x, y)
}

func (b countingBackend) AddMatMulTN(dst, x, y *tensor.Matrix) {
	defer kernelDone(stamp())
	b.inner.AddMatMulTN(dst, x, y)
}

func (b countingBackend) Softmax(dst, src tensor.Vector) {
	defer kernelDone(stamp())
	b.inner.Softmax(dst, src)
}

func (b countingBackend) SoftmaxXent(probs, grad, logits tensor.Vector, label int) float64 {
	defer kernelDone(stamp())
	return b.inner.SoftmaxXent(probs, grad, logits, label)
}
