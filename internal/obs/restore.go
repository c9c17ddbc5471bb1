package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"floatfl/internal/checkpoint"
)

// AppendCheckpoint writes the registry as one checkpoint section, straight
// from the live metrics: counters (count, then name and value of each, in
// name order), gauges likewise, histograms (name, count, sum, then the
// bucket count and each bucket's bound string and cumulative count). The
// name lists are kept across calls, so a registry whose metric set is
// unchanged since the last call allocates nothing. Like Snapshot, it wants
// a quiescent registry; a nil registry writes an empty one's section.
func (r *Registry) AppendCheckpoint(e *checkpoint.Enc) {
	if r == nil {
		for range 3 { // no counters, gauges or histograms
			e.Uvarint(0)
		}
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sortNamesLocked()
	e.Uvarint(uint64(len(r.counterNames)))
	for _, name := range r.counterNames {
		e.String(name)
		e.Int64(r.counters[name].Value())
	}
	e.Uvarint(uint64(len(r.gaugeNames)))
	for _, name := range r.gaugeNames {
		e.String(name)
		e.Float64(r.gauges[name].Value())
	}
	e.Uvarint(uint64(len(r.histogramNames)))
	for _, name := range r.histogramNames {
		h := r.histograms[name]
		e.String(name)
		e.Int64(h.Count())
		e.Float64(h.Sum())
		e.Uvarint(uint64(len(h.counts)))
		cum := int64(0)
		for i := range h.counts {
			cum += h.counts[i].Load()
			e.String(h.les[i])
			e.Int64(cum)
		}
	}
}

// sortNamesLocked brings each kind's name list up to date with its map.
func (r *Registry) sortNamesLocked() {
	r.counterNames = sortedNames(r.counterNames, r.counters)
	r.gaugeNames = sortedNames(r.gaugeNames, r.gauges)
	r.histogramNames = sortedNames(r.histogramNames, r.histograms)
}

// sortedNames returns m's keys in order, reusing names when it already
// holds them all.
func sortedNames[V any](names []string, m map[string]V) []string {
	if len(names) == len(m) {
		return names
	}
	names = names[:0]
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DecodeSnapshot reads what AppendCheckpoint wrote. A malformed section latches
// d's error and yields a partial Snapshot the caller must discard.
func DecodeSnapshot(d *checkpoint.Dec) Snapshot {
	var s Snapshot
	s.Counters = make([]CounterSnapshot, d.Count(2))
	for i := range s.Counters {
		s.Counters[i] = CounterSnapshot{Name: d.String(), Value: d.Int64()}
	}
	s.Gauges = make([]GaugeSnapshot, d.Count(1+8))
	for i := range s.Gauges {
		s.Gauges[i] = GaugeSnapshot{Name: d.String(), Value: d.Float64()}
	}
	s.Histograms = make([]HistogramSnapshot, d.Count(1+1+8+1))
	for i := range s.Histograms {
		h := HistogramSnapshot{Name: d.String(), Count: d.Int64(), Sum: d.Float64()}
		h.Buckets = make([]Bucket, d.Count(2))
		for j := range h.Buckets {
			h.Buckets[j] = Bucket{LE: d.String(), Count: d.Int64()}
		}
		s.Histograms[i] = h
	}
	return s
}

// RestoreSnapshot overwrites the registry's state with a previously
// captured Snapshot, so a resumed run's exposition continues byte-for-byte
// where the snapshotted run left off.
//
// Semantics are hard-set, not merge: every metric named in the snapshot is
// created if absent and set to exactly the recorded value, and every
// already-registered metric absent from the snapshot is reset to zero.
// The second half matters for resume ordering — engine restore re-derives
// cached state (population warm-up, task re-acquisition) before calling
// this, and the hard overwrite erases whatever counter or histogram noise
// that rebuilding produced. Existing handles stay valid: values are stored
// through the registered objects, never by replacing them.
//
// The snapshot is validated before any metric is touched; on error — a
// *checkpoint.FormatError for a malformed snapshot, a
// *checkpoint.CompatError for one that clashes with what is registered —
// the registry is unchanged.
func (r *Registry) RestoreSnapshot(s Snapshot) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	// Validation pass: kind clashes and malformed histograms must surface
	// before the first write, so a bad snapshot cannot half-apply.
	seen := make(map[string]bool, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for _, c := range s.Counters {
		if err := r.restorableLocked(c.Name, "counter", seen); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if err := r.restorableLocked(g.Name, "gauge", seen); err != nil {
			return err
		}
	}
	type histPlan struct {
		snap   HistogramSnapshot
		bounds []float64 // parsed from bucket LEs when the histogram is new
		perBkt []int64   // de-cumulated per-bucket counts
	}
	plans := make([]histPlan, 0, len(s.Histograms))
	for _, hs := range s.Histograms {
		if err := r.restorableLocked(hs.Name, "histogram", seen); err != nil {
			return err
		}
		plan := histPlan{snap: hs}
		if len(hs.Buckets) == 0 || hs.Buckets[len(hs.Buckets)-1].LE != "+Inf" {
			return &checkpoint.FormatError{Reason: fmt.Sprintf("metrics: histogram %q buckets must end with +Inf", hs.Name)}
		}
		prev := int64(0)
		for i, b := range hs.Buckets {
			if b.Count < prev {
				return &checkpoint.FormatError{Reason: fmt.Sprintf("metrics: histogram %q bucket %d count decreases", hs.Name, i)}
			}
			plan.perBkt = append(plan.perBkt, b.Count-prev)
			prev = b.Count
			if i == len(hs.Buckets)-1 {
				continue
			}
			bound, err := strconv.ParseFloat(b.LE, 64)
			if err != nil {
				return &checkpoint.FormatError{Reason: fmt.Sprintf("metrics: histogram %q bucket bound %q: %v", hs.Name, b.LE, err)}
			}
			if math.IsNaN(bound) || math.IsInf(bound, 0) || (i > 0 && bound <= plan.bounds[i-1]) {
				return &checkpoint.FormatError{Reason: fmt.Sprintf("metrics: histogram %q bounds must be finite and strictly increasing", hs.Name)}
			}
			plan.bounds = append(plan.bounds, bound)
		}
		if h, ok := r.histograms[hs.Name]; ok {
			if len(h.counts) != len(hs.Buckets) {
				return &checkpoint.CompatError{Field: "metric " + hs.Name + " bucket count",
					Got: strconv.Itoa(len(hs.Buckets)), Want: strconv.Itoa(len(h.counts))}
			}
			for i := range plan.bounds {
				if h.les[i] != hs.Buckets[i].LE {
					return &checkpoint.CompatError{Field: fmt.Sprintf("metric %s bucket %d bound", hs.Name, i),
						Got: hs.Buckets[i].LE, Want: h.les[i]}
				}
			}
		}
		plans = append(plans, plan)
	}

	// Apply pass. Reset everything, then set the recorded values.
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.histograms {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.sumMicros.Store(0)
		h.total.Store(0)
	}
	for _, cs := range s.Counters {
		c, ok := r.counters[cs.Name]
		if !ok {
			c = &Counter{}
			r.counters[cs.Name] = c
		}
		c.v.Store(cs.Value)
	}
	for _, gs := range s.Gauges {
		g, ok := r.gauges[gs.Name]
		if !ok {
			g = &Gauge{}
			r.gauges[gs.Name] = g
		}
		g.bits.Store(math.Float64bits(gs.Value))
	}
	for _, plan := range plans {
		h, ok := r.histograms[plan.snap.Name]
		if !ok {
			h = newHistogram(plan.bounds)
			r.histograms[plan.snap.Name] = h
		}
		for i, n := range plan.perBkt {
			h.counts[i].Store(n)
		}
		h.total.Store(plan.snap.Count)
		// Sum is the fixed-point accumulator divided by sumScale; the
		// inverse round-trips exactly at any realistic magnitude, so the
		// restored exposition renders the identical float.
		h.sumMicros.Store(int64(math.Round(plan.snap.Sum * sumScale)))
	}
	return nil
}

// restorableLocked reports whether name can be restored as kind — the
// error-returning analog of checkNameLocked (restore handles untrusted
// files, so clashes must not panic). seen collects the snapshot's own
// names: one that appears twice, under any kind, is malformed.
func (r *Registry) restorableLocked(name, kind string, seen map[string]bool) error {
	if name == "" || seen[name] {
		return &checkpoint.FormatError{Reason: fmt.Sprintf("metrics: empty or repeated metric name %q", name)}
	}
	seen[name] = true
	registered := ""
	if _, ok := r.counters[name]; ok {
		registered = "counter"
	} else if _, ok := r.gauges[name]; ok {
		registered = "gauge"
	} else if _, ok := r.histograms[name]; ok {
		registered = "histogram"
	}
	if registered != "" && registered != kind {
		return &checkpoint.CompatError{Field: "metric " + name + " kind", Got: kind, Want: registered}
	}
	return nil
}
