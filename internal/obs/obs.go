// Package obs is the deterministic telemetry layer shared by the FL
// engines, the distributed aggregator, and the CLIs: a metrics registry
// (counters, gauges, fixed-bucket histograms) plus a span tracer for the
// per-round phase structure.
//
// Two properties drive the design:
//
//   - Zero-allocation hot path. Handles are pre-registered once (the only
//     map lookups happen at registration time); every event afterwards is
//     a single atomic operation on a handle the caller holds. All handle
//     methods are nil-receiver safe, so uninstrumented runs pay one
//     predictable branch per event and allocate nothing — no throwaway
//     registry, no per-call nil plumbing.
//
//   - Determinism. For a fixed seed, the exported snapshot must be
//     byte-identical regardless of Parallelism or GOMAXPROCS. Counter and
//     histogram updates are integer atomic adds (commutative, so the
//     interleaving cannot change the totals); histogram sums are stored in
//     fixed-point micro-units so no floating-point addition order ever
//     leaks into the output; gauges are only written from single-threaded
//     engine passes; and exposition collects then sorts by name, never
//     exposing map iteration order.
//
// The package deliberately has no clock: span timestamps are supplied by
// the caller (virtual simulation seconds in internal/fl, the injected
// dist.Clock in internal/dist), which keeps obs inside the repository's
// no-wall-clock determinism contract.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero value of a
// nil *Counter is usable: every method no-ops (or returns zero), so
// uninstrumented call sites need no guards.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored; counters are monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float64. Writes must come from a
// single-threaded owner pass (the engines' dispatch/collect passes, or
// under the dist server's mutex) so the final value is deterministic.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last value set (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// sumScale is the fixed-point resolution of histogram sums: one
// micro-unit. Storing sums as integers makes concurrent Observe calls
// commutative — float addition order can never change the snapshot.
const sumScale = 1e6

// Histogram is a fixed-bucket distribution. Bucket bounds are upper
// bounds (inclusive), with an implicit +Inf overflow bucket; counts and
// the fixed-point sum are atomic integers, so Observe is safe from any
// worker and the totals are independent of interleaving.
type Histogram struct {
	bounds    []float64
	les       []string       // each bucket's rendered bound; last is "+Inf"
	counts    []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sumMicros atomic.Int64
	total     atomic.Int64
}

// newHistogram returns an empty histogram over bounds, which it keeps.
func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, les: make([]string, len(bounds)+1), counts: make([]atomic.Int64, len(bounds)+1)}
	for i, b := range bounds {
		h.les[i] = formatFloat(b)
	}
	h.les[len(bounds)] = "+Inf"
	return h
}

// Observe records one sample. Non-finite samples are dropped (they would
// poison the fixed-point sum).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	h.sumMicros.Add(int64(math.Round(v * sumScale)))
}

// Count returns the number of samples observed (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observed samples, reconstructed from the
// fixed-point accumulator (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumMicros.Load()) / sumScale
}

// Registry owns a namespace of metrics. Registration (Counter, Gauge,
// Histogram) is idempotent per name — re-registering returns the existing
// handle, which lets independent components (e.g. per-client RL agents)
// share one set of counters — and is the only place a map is touched; the
// returned handles are then update-path-free of locks and lookups.
//
// All methods are safe on a nil *Registry and return nil handles, so a
// component can be handed "no registry" and instrument itself anyway.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	// Each kind's names in order, for AppendCheckpoint. The maps only
	// grow, so a list shorter than its map is stale.
	counterNames, gaugeNames, histogramNames []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter registers (or fetches) the counter with the given name.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkNameLocked(name, "counter")
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge registers (or fetches) the gauge with the given name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkNameLocked(name, "gauge")
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram registers (or fetches) the histogram with the given name.
// bounds are strictly increasing upper bounds; an implicit +Inf bucket is
// appended. Re-registration returns the existing histogram and ignores
// bounds. Invalid bounds panic: metric registration runs once at startup,
// so a bad bucket layout is a programming error, not a runtime condition.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkNameLocked(name, "histogram")
	h, ok := r.histograms[name]
	if ok {
		return h
	}
	for i := range bounds {
		if math.IsNaN(bounds[i]) || math.IsInf(bounds[i], 0) || (i > 0 && bounds[i] <= bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %q bounds must be finite and strictly increasing, got %v", name, bounds))
		}
	}
	h = newHistogram(append([]float64(nil), bounds...))
	r.histograms[name] = h
	return h
}

// checkNameLocked panics on an empty name or a name already registered
// under a different metric kind than the caller's (kind).
func (r *Registry) checkNameLocked(name, kind string) {
	if name == "" {
		panic("obs: metric name must be non-empty")
	}
	if _, ok := r.counters[name]; ok && kind != "counter" {
		panic(fmt.Sprintf("obs: %q already registered as a counter, not a %s", name, kind))
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic(fmt.Sprintf("obs: %q already registered as a gauge, not a %s", name, kind))
	}
	if _, ok := r.histograms[name]; ok && kind != "histogram" {
		panic(fmt.Sprintf("obs: %q already registered as a histogram, not a %s", name, kind))
	}
}

// CounterSnapshot is one counter's exported state.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge's exported state.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Bucket is one histogram bucket: the cumulative count of samples <= LE.
// The final bucket has LE = +Inf (serialized as the string "+Inf").
type Bucket struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// HistogramSnapshot is one histogram's exported state. Sum is
// reconstructed from the fixed-point accumulator, so it is bit-identical
// across any Observe interleaving.
type HistogramSnapshot struct {
	Name    string   `json:"name"`
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot is a consistent, name-sorted export of a registry. Field and
// slice ordering are fixed, so both the JSON and text renderings are
// byte-identical for identical metric values.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// snapshot renders the histogram's cumulative bucket view. The bucket
// order follows h.bounds (fixed at registration), so it is deterministic
// regardless of Observe interleaving.
func (h *Histogram) snapshot(name string) HistogramSnapshot {
	hs := HistogramSnapshot{Name: name, Count: h.Count(), Sum: h.Sum()}
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		hs.Buckets = append(hs.Buckets, Bucket{LE: le, Count: cum})
	}
	return hs
}

// Snapshot collects every metric, sorted by name within each kind. The
// iteration over the internal maps is collect-then-sort: map order never
// reaches the caller.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		snap.Counters = append(snap.Counters, CounterSnapshot{Name: name, Value: c.Value()})
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	for name, g := range r.gauges {
		snap.Gauges = append(snap.Gauges, GaugeSnapshot{Name: name, Value: g.Value()})
	}
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	for name, h := range r.histograms {
		snap.Histograms = append(snap.Histograms, h.snapshot(name))
	}
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap
}

// WriteText renders the snapshot in a flat, Prometheus-flavored text
// format: `name value` lines for counters and gauges, and
// `name_count` / `name_sum` / `name_bucket{le="..."}` lines per
// histogram. Output is sorted and reproducible.
func (r *Registry) WriteText(w io.Writer) error {
	return r.Snapshot().WriteText(w)
}

// WriteText renders an already-collected snapshot (see Registry.WriteText).
func (s Snapshot) WriteText(w io.Writer) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "%s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "%s %s\n", g.Name, formatFloat(g.Value)); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if _, err := fmt.Fprintf(w, "%s_count %d\n%s_sum %s\n", h.Name, h.Count, h.Name, formatFloat(h.Sum)); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.Name, b.LE, b.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatFloat is the single float rendering used across all expositions:
// shortest round-trip representation, so equal values always produce
// equal bytes.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
