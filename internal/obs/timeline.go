package obs

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"floatfl/internal/checkpoint"
)

// timelineSchema versions the timeline JSONL export.
const timelineSchema = "floatfl-timeline/v1"

// DefaultTimelineCapacity bounds the sample ring when the caller does not
// choose a capacity. At one sample per round this covers multi-thousand
// round runs before the ring starts folding.
const DefaultTimelineCapacity = 4096

// SeriesValue is one named engine fact contributed alongside the registry
// snapshot at a sample point — per-round selected/dropped counts, the
// global accuracy, RL action visit counts. Names share the registry's
// exposition namespace, so contributors must not collide with registered
// metric names unless they mean to override one (see SampleFrom).
type SeriesValue struct {
	Name  string
	Value float64
}

// TimelineSample is one quiescent-boundary observation. Values holds only
// the series whose value changed since the previous retained sample
// (absolute values, not diffs); the oldest sample in a ring always holds
// the complete series set, so any suffix of a timeline reconstructs every
// series by carrying values forward.
type TimelineSample struct {
	Round  int                `json:"round"`
	Clock  float64            `json:"clock"`
	Values map[string]float64 `json:"values"`
}

// TimelineHeader is the first line of a timeline JSONL export.
type TimelineHeader struct {
	Schema   string `json:"schema"`
	Capacity int    `json:"capacity"`
	Dropped  int    `json:"dropped"`
}

// Timeline is a bounded ring of delta-encoded per-round samples of a
// metrics registry plus caller-supplied engine facts. Sampling happens at
// the engines' quiescent boundaries (single-threaded, after FlushObs), so
// for a fixed seed the sample stream — and therefore the JSONL export —
// is byte-identical across Parallelism, GOMAXPROCS, and eager/lazy
// populations. The mutex exists for the live inspection plane: HTTP
// readers may walk the ring while the engine owns the write side.
//
// Timeline implements checkpoint.Stateful so a resumed run continues the
// sample stream exactly where the snapshot left off (stitching invariant:
// run-N → resume-N exports the same bytes as run-2N).
//
// All methods are nil-receiver safe; an unconfigured engine pays one
// branch per boundary.
type Timeline struct {
	mu  sync.Mutex
	reg *Registry

	capacity int
	// series interns every series name ever retained; last is the
	// carry-forward view — the absolute value of each, by series index —
	// that the next sample is delta-compared against.
	series seriesTable
	last   []float64
	// samples is the ring, oldest first.
	samples []sample
	// dropped counts samples evicted (folded forward) by the ring bound.
	dropped int
}

// sample is the ring's storage form of one observation: the changed
// series as (series index, value) pairs in index order, already in their
// checkpoint encoding — uvarint index, little-endian float64 bits — so a
// snapshot copies them and only readers rebuild map[string]float64. A
// sample's pairs are immutable once stored (folding builds a new slice).
type sample struct {
	round int
	clock float64
	pairs []byte
}

// seriesTable interns series names. A name gets the next index when a
// sample first retains a value for it; names that first appear in the same
// sample are numbered in name order, so the table is a function of the
// sample stream alone.
type seriesTable struct {
	names []string
	index map[string]int
}

func newSeriesTable(names []string) seriesTable {
	st := seriesTable{names: names, index: make(map[string]int, len(names))}
	for i, name := range names {
		st.index[name] = i
	}
	return st
}

func (st *seriesTable) intern(name string) int {
	i := len(st.names)
	st.names = append(st.names, name)
	st.index[name] = i
	return i
}

func appendPair(b []byte, idx int, v float64) []byte {
	b = binary.AppendUvarint(b, uint64(idx))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// nextPair splits the first pair off b. Stored pairs are well-formed by
// construction (Sample wrote them, or RestoreCheckpoint validated them);
// ok is false only for the validator's benefit.
func nextPair(b []byte) (idx int, v float64, rest []byte, ok bool) {
	u, n := binary.Uvarint(b)
	if n <= 0 || len(b)-n < 8 || u > math.MaxInt32 {
		return 0, 0, nil, false
	}
	return int(u), math.Float64frombits(binary.LittleEndian.Uint64(b[n:])), b[n+8:], true
}

// foldPairs merges an evicted sample's pairs into its successor's: the
// union in index order, the successor's value winning where both have one.
func foldPairs(evicted, next []byte) []byte {
	out := make([]byte, 0, len(evicted)+len(next))
	for len(evicted) > 0 && len(next) > 0 {
		ei, ev, erest, _ := nextPair(evicted)
		ni, nv, nrest, _ := nextPair(next)
		switch {
		case ei < ni:
			out, evicted = appendPair(out, ei, ev), erest
		case ei > ni:
			out, next = appendPair(out, ni, nv), nrest
		default:
			out, evicted, next = appendPair(out, ni, nv), erest, nrest
		}
	}
	return append(append(out, evicted...), next...)
}

// valuesLocked rebuilds the reader-facing form of one sample.
func (t *Timeline) valuesLocked(pairs []byte) map[string]float64 {
	vals := make(map[string]float64)
	for len(pairs) > 0 {
		idx, v, rest, _ := nextPair(pairs)
		vals[t.series.names[idx]] = v
		pairs = rest
	}
	return vals
}

// NewTimeline builds a timeline over reg (which may be nil — then only
// the extra SeriesValues are sampled). capacity <= 0 selects
// DefaultTimelineCapacity.
func NewTimeline(reg *Registry, capacity int) *Timeline {
	if capacity <= 0 {
		capacity = DefaultTimelineCapacity
	}
	return &Timeline{
		reg:      reg,
		capacity: capacity,
		series:   newSeriesTable(nil),
	}
}

// flattenSnapshot projects a registry snapshot onto the flat series
// namespace used by samples, mirroring the text exposition's names:
// counters and gauges keep their own name, histograms expand to
// name_count, name_sum, and one name_bucket{le="..."} per bucket.
func flattenSnapshot(s Snapshot, dst map[string]float64) {
	for _, c := range s.Counters {
		dst[c.Name] = float64(c.Value)
	}
	for _, g := range s.Gauges {
		dst[g.Name] = g.Value
	}
	for _, h := range s.Histograms {
		dst[h.Name+"_count"] = float64(h.Count)
		dst[h.Name+"_sum"] = h.Sum
		for _, b := range h.Buckets {
			dst[h.Name+`_bucket{le="`+b.LE+`"}`] = float64(b.Count)
		}
	}
}

// Sample records one observation at (round, clock): the full registry
// snapshot plus the extra series, delta-encoded against the previous
// sample. Must be called from a quiescent, single-threaded point (no
// in-flight Observe/Inc racing the snapshot) — the engines call it at
// their end-of-round boundaries. A caller that must commit the row later
// than the boundary (the dist server, whose holdout accuracy arrives after
// it) takes the snapshot there and passes it to SampleFrom instead.
func (t *Timeline) Sample(round int, clock float64, extra ...SeriesValue) {
	if t == nil {
		return
	}
	var snap Snapshot
	if t.reg != nil {
		snap = t.reg.Snapshot()
	}
	t.SampleFrom(snap, round, clock, extra...)
}

// SampleFrom is Sample over a registry snapshot the caller took earlier:
// the row is that snapshot plus the extra series, whatever the registry
// holds now. An extra series named like a registry series overrides it,
// which is how a deferred row carries a value computed after its snapshot.
func (t *Timeline) SampleFrom(snap Snapshot, round int, clock float64, extra ...SeriesValue) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := make(map[string]float64, len(t.last))
	flattenSnapshot(snap, cur)
	for _, sv := range extra {
		cur[sv.Name] = sv.Value
	}

	// Interning happens here, once per retained value: changed series of
	// known names by index, then first-seen names in name order (their
	// indices all follow, so the pairs come out in index order).
	var changed []int
	var fresh []string
	for name, v := range cur {
		idx, ok := t.series.index[name]
		switch {
		case !ok:
			fresh = append(fresh, name)
		case t.last[idx] != v:
			t.last[idx] = v
			changed = append(changed, idx)
		}
	}
	sort.Ints(changed)
	sort.Strings(fresh)
	for _, name := range fresh {
		changed = append(changed, t.series.intern(name))
		t.last = append(t.last, cur[name])
	}
	pairs := make([]byte, 0, 10*len(changed))
	for _, idx := range changed {
		pairs = appendPair(pairs, idx, t.last[idx])
	}
	t.samples = append(t.samples, sample{round: round, clock: clock, pairs: pairs})
	for len(t.samples) > t.capacity {
		// Fold the evicted sample forward so the new oldest sample stays a
		// complete snapshot: any series it does not override keeps the
		// evicted sample's value. The ring slides along its backing array
		// (append re-bases it once per capacity samples), so eviction is
		// O(1) amortized rather than a shift of every retained sample.
		t.samples[1].pairs = foldPairs(t.samples[0].pairs, t.samples[1].pairs)
		t.samples[0] = sample{}
		t.samples = t.samples[1:]
		t.dropped++
	}
}

// Len returns the number of retained samples (0 for nil).
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.samples)
}

// Dropped returns how many samples the ring bound has evicted.
func (t *Timeline) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Samples returns a deep copy of the retained samples in round order.
func (t *Timeline) Samples() []TimelineSample {
	return t.SamplesSince(-1 << 62)
}

// SamplesSince returns a deep copy of the retained samples with
// Round > since — the incremental-read primitive behind
// GET /v1/timeline?since=N. Values maps are built for the caller, so the
// ring can never mutate a response in flight. Note the returned slice
// is a ring suffix: its first sample carries only the series that changed
// after `since`, so incremental readers must carry earlier values forward
// themselves (which they have, from the previous read).
func (t *Timeline) SamplesSince(since int) []TimelineSample {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TimelineSample, 0, len(t.samples))
	for _, s := range t.samples {
		if s.round <= since {
			continue
		}
		out = append(out, TimelineSample{Round: s.round, Clock: s.clock, Values: t.valuesLocked(s.pairs)})
	}
	return out
}

// LatestRound returns the round of the newest retained sample, or -1 when
// the timeline is empty — the cursor a poller feeds back as ?since=.
func (t *Timeline) LatestRound() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.samples) == 0 {
		return -1
	}
	return t.samples[len(t.samples)-1].round
}

// WriteJSONL renders the timeline as one header line plus one sample per
// line. encoding/json sorts map keys and uses shortest-round-trip float
// formatting, so equal timelines always produce equal bytes — the export
// is the byte-comparison surface of the determinism contract.
func (t *Timeline) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	header := TimelineHeader{Schema: timelineSchema, Capacity: t.capacity, Dropped: t.dropped}
	// Marshal under the lock: the ring slides while the engine samples.
	lines := make([][]byte, 0, len(t.samples)+1)
	hb, err := json.Marshal(header)
	if err != nil {
		t.mu.Unlock()
		return err
	}
	lines = append(lines, hb)
	for _, s := range t.samples {
		b, err := json.Marshal(TimelineSample{Round: s.round, Clock: s.clock, Values: t.valuesLocked(s.pairs)})
		if err != nil {
			t.mu.Unlock()
			return err
		}
		lines = append(lines, b)
	}
	t.mu.Unlock()
	for _, line := range lines {
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// TimelineCapacityError is ReadTimeline's error for a sample line past the
// header's capacity: the writer's ring never holds more, so the file was
// not written by WriteJSONL.
type TimelineCapacityError struct {
	Capacity int
	Line     int
}

func (e *TimelineCapacityError) Error() string {
	return fmt.Sprintf("obs: timeline line %d: more samples than the header's capacity %d", e.Line, e.Capacity)
}

// ReadTimeline parses a timeline written by WriteJSONL: a header line
// followed by at most capacity samples. Blank lines are skipped; a
// malformed line or a schema mismatch is an error (timelines are
// machine-written), and a sample past the capacity a
// *TimelineCapacityError.
func ReadTimeline(r io.Reader) (TimelineHeader, []TimelineSample, error) {
	var header TimelineHeader
	var samples []TimelineSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	sawHeader := false
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if !sawHeader {
			if err := json.Unmarshal(line, &header); err != nil {
				return header, nil, fmt.Errorf("obs: timeline line %d: %w", lineNo, err)
			}
			if header.Schema != timelineSchema {
				return header, nil, fmt.Errorf("obs: timeline schema %q, want %q", header.Schema, timelineSchema)
			}
			if header.Capacity <= 0 {
				return header, nil, fmt.Errorf("obs: timeline capacity %d must be positive", header.Capacity)
			}
			sawHeader = true
			continue
		}
		if len(samples) == header.Capacity {
			return header, nil, &TimelineCapacityError{Capacity: header.Capacity, Line: lineNo}
		}
		var s TimelineSample
		if err := json.Unmarshal(line, &s); err != nil {
			return header, nil, fmt.Errorf("obs: timeline line %d: %w", lineNo, err)
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return header, nil, err
	}
	if !sawHeader {
		return header, nil, fmt.Errorf("obs: timeline is empty (missing header line)")
	}
	return header, samples, nil
}

// CheckpointState implements checkpoint.Stateful. The payload is the
// complete ring plus the carry-forward view, so a restored timeline
// delta-encodes its next sample against exactly the state the snapshotted
// run saw: capacity, dropped, the name table (count, then each name),
// one carry-forward float64 per name, then the samples (count, then
// round, clock and the length-prefixed pairs of each). The pairs are
// copied as stored — a boundary costs O(bytes), not a re-walk of history.
func (t *Timeline) CheckpointState() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	size := 32 + 8*len(t.last)
	for _, name := range t.series.names {
		size += len(name) + 2
	}
	for _, s := range t.samples {
		size += len(s.pairs) + 24
	}
	e := checkpoint.NewEnc(size)
	e.Int(t.capacity)
	e.Int(t.dropped)
	e.Uvarint(uint64(len(t.series.names)))
	for _, name := range t.series.names {
		e.String(name)
	}
	for _, v := range t.last {
		e.Float64(v)
	}
	e.Uvarint(uint64(len(t.samples)))
	for _, s := range t.samples {
		e.Int(s.round)
		e.Float64(s.clock)
		e.RawBytes(s.pairs)
	}
	return e.Bytes(), nil
}

// RestoreCheckpoint implements checkpoint.Stateful. The payload is decoded
// and validated before any field is mutated; on error (a
// *checkpoint.FormatError) the timeline is unchanged. The ring capacity is
// restored from the snapshot (it is part of what makes the stitched export
// byte-identical to an uninterrupted run).
func (t *Timeline) RestoreCheckpoint(data []byte) error {
	bad := func(format string, args ...any) error {
		return &checkpoint.FormatError{Reason: "timeline state: " + fmt.Sprintf(format, args...)}
	}
	d := checkpoint.NewDec(data)
	capacity, dropped := d.Int(), d.Int()
	names := make([]string, d.Count(1+8))
	for i := range names {
		names[i] = d.String()
	}
	last := make([]float64, len(names))
	for i := range last {
		last[i] = d.Float64()
	}
	samples := make([]sample, d.Count(1+8+1))
	pairBytes := 0
	for i := range samples {
		samples[i] = sample{round: d.Int(), clock: d.Float64(), pairs: d.RawBytes()}
		pairBytes += len(samples[i].pairs)
	}
	if err := d.Done(); err != nil {
		return bad("%v", err)
	}
	if capacity <= 0 || dropped < 0 {
		return bad("capacity %d must be positive and dropped %d non-negative", capacity, dropped)
	}
	if len(samples) > capacity {
		return bad("%d samples exceed capacity %d", len(samples), capacity)
	}
	series := newSeriesTable(names)
	if len(series.index) != len(names) {
		return bad("duplicate series name")
	}
	// The samples' pairs move into one arena of the timeline's own: the
	// caller keeps ownership of data.
	arena := make([]byte, 0, pairBytes)
	for i := range samples {
		if i > 0 && samples[i].round <= samples[i-1].round {
			return bad("sample rounds not increasing at index %d", i)
		}
		prev := -1
		for p := samples[i].pairs; len(p) > 0; {
			idx, _, rest, ok := nextPair(p)
			if !ok || idx <= prev || idx >= len(names) {
				return bad("sample %d: malformed series pairs", i)
			}
			prev, p = idx, rest
		}
		start := len(arena)
		arena = append(arena, samples[i].pairs...)
		samples[i].pairs = arena[start:len(arena):len(arena)]
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.capacity = capacity
	t.dropped = dropped
	t.series = series
	t.last = last
	t.samples = samples
	return nil
}
