package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"floatfl/internal/checkpoint"
)

// timelineFixture builds a registry with one of each instrument and a
// timeline over it.
func timelineFixture(capacity int) (*Registry, *Timeline, *Counter, *Gauge, *Histogram) {
	reg := NewRegistry()
	c := reg.Counter("t_events_total")
	g := reg.Gauge("t_level")
	h := reg.Histogram("t_latency_seconds", []float64{1, 10})
	return reg, NewTimeline(reg, capacity), c, g, h
}

func TestTimelineDeltaEncoding(t *testing.T) {
	_, tl, c, g, h := timelineFixture(16)
	c.Inc()
	g.Set(0.5)
	h.Observe(2)
	tl.Sample(0, 10, SeriesValue{Name: "extra", Value: 7})

	samples := tl.Samples()
	if len(samples) != 1 {
		t.Fatalf("samples = %d, want 1", len(samples))
	}
	first := samples[0]
	if first.Round != 0 || first.Clock != 10 {
		t.Fatalf("first sample = %+v", first)
	}
	// The first sample is a full snapshot: every series appears even when
	// zero-valued.
	for _, name := range []string{
		"t_events_total", "t_level", "t_latency_seconds_count",
		"t_latency_seconds_sum", `t_latency_seconds_bucket{le="1"}`,
		`t_latency_seconds_bucket{le="10"}`, `t_latency_seconds_bucket{le="+Inf"}`,
		"extra",
	} {
		if _, ok := first.Values[name]; !ok {
			t.Errorf("first sample missing series %q", name)
		}
	}

	// A second sample with one counter bump carries only the changed
	// series (and drops the vanished one-shot extra).
	c.Inc()
	tl.Sample(1, 20)
	second := tl.Samples()[1]
	if got := second.Values["t_events_total"]; got != 2 {
		t.Fatalf("t_events_total = %v, want 2 (absolute, not delta)", got)
	}
	if _, ok := second.Values["t_level"]; ok {
		t.Errorf("unchanged gauge should be omitted from delta sample")
	}
	if len(second.Values) != 1 {
		t.Errorf("delta sample carries %d series, want 1: %v", len(second.Values), second.Values)
	}

	// An unchanged registry yields an empty (but still present) sample.
	tl.Sample(2, 30)
	if third := tl.Samples()[2]; len(third.Values) != 0 {
		t.Errorf("no-change sample carries values: %v", third.Values)
	}
}

// TestTimelineSampleFrom pins the deferred-row primitive: SampleFrom over
// a snapshot taken just before is Sample, byte for byte, and a row built
// from an earlier snapshot is that snapshot — registry changes made since
// do not reach it, and an extra series overrides the one it names.
func TestTimelineSampleFrom(t *testing.T) {
	_, direct, cA, gA, hA := timelineFixture(3)
	regB, deferred, cB, gB, hB := timelineFixture(3)
	for round := 0; round < 6; round++ {
		for _, f := range []struct {
			c *Counter
			g *Gauge
			h *Histogram
		}{{cA, gA, hA}, {cB, gB, hB}} {
			f.c.Inc()
			f.g.Set(float64(round % 2))
			f.h.Observe(float64(3 * round))
		}
		extra := SeriesValue{Name: "extra", Value: float64(round / 2)}
		direct.Sample(round, float64(round)/4, extra)
		deferred.SampleFrom(regB.Snapshot(), round, float64(round)/4, extra)
	}
	var a, b bytes.Buffer
	if err := direct.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := deferred.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("SampleFrom(reg.Snapshot()) differs from Sample:\n%s\nvs\n%s", b.String(), a.String())
	}
	if direct.Dropped() != 3 {
		t.Fatalf("dropped = %d; the ring must fold for the comparison to cover it", direct.Dropped())
	}

	reg, tl, c, g, _ := timelineFixture(16)
	c.Add(5)
	g.Set(0.25)
	snap := reg.Snapshot()
	c.Inc()
	g.Set(0.75)
	reg.Counter("t_late_total").Inc()
	tl.SampleFrom(snap, 0, 1, SeriesValue{Name: "t_level", Value: 0.5})
	row := tl.Samples()[0]
	if got := row.Values["t_events_total"]; got != 5 {
		t.Errorf("t_events_total = %v, want the snapshot's 5", got)
	}
	if got := row.Values["t_level"]; got != 0.5 {
		t.Errorf("t_level = %v, want the overriding extra 0.5", got)
	}
	if _, ok := row.Values["t_late_total"]; ok {
		t.Error("a series registered after the snapshot reached the row")
	}
}

func TestTimelineRingFoldPreservesAbsoluteState(t *testing.T) {
	_, tl, c, _, _ := timelineFixture(3)
	for round := 0; round < 6; round++ {
		c.Inc()
		tl.Sample(round, float64(round))
	}
	if tl.Len() != 3 {
		t.Fatalf("len = %d, want 3", tl.Len())
	}
	if tl.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", tl.Dropped())
	}
	samples := tl.Samples()
	// Invariant: after eviction the oldest retained sample must still be a
	// full snapshot — the evicted samples' values folded forward — so a
	// reader reconstructs absolute state without the dropped prefix.
	oldest := samples[0]
	if oldest.Round != 3 {
		t.Fatalf("oldest round = %d, want 3", oldest.Round)
	}
	if got := oldest.Values["t_events_total"]; got != 4 {
		t.Fatalf("folded t_events_total = %v, want 4", got)
	}
	for _, name := range []string{"t_level", "t_latency_seconds_count"} {
		if _, ok := oldest.Values[name]; !ok {
			t.Errorf("fold lost series %q", name)
		}
	}
}

func TestTimelineJSONLRoundTrip(t *testing.T) {
	_, tl, c, g, _ := timelineFixture(8)
	for round := 0; round < 3; round++ {
		c.Add(int64(round + 1))
		g.Set(float64(round) / 2)
		tl.Sample(round, float64(round)*5)
	}
	var buf bytes.Buffer
	if err := tl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	hdr, samples, err := ReadTimeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Schema != timelineSchema || hdr.Capacity != 8 || hdr.Dropped != 0 {
		t.Fatalf("header = %+v", hdr)
	}
	if len(samples) != 3 {
		t.Fatalf("samples = %d, want 3", len(samples))
	}
	want := tl.Samples()
	for i := range samples {
		a, _ := json.Marshal(samples[i])
		b, _ := json.Marshal(want[i])
		if !bytes.Equal(a, b) {
			t.Errorf("sample %d: %s != %s", i, a, b)
		}
	}

	// Byte reproducibility: two exports of the same ring are identical.
	var buf2 bytes.Buffer
	if err := tl.WriteJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	var buf3 bytes.Buffer
	if err := tl.WriteJSONL(&buf3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf2.Bytes(), buf3.Bytes()) {
		t.Fatal("repeated exports differ")
	}
}

func TestReadTimelineRejectsMalformedInput(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"bad header": "not json\n",
		"bad schema": `{"schema":"other/v9","capacity":4,"dropped":0}` + "\n",
		"bad sample": `{"schema":"floatfl-timeline/v1","capacity":4,"dropped":0}` + "\nnope\n",
		"zero cap":   `{"schema":"floatfl-timeline/v1","capacity":0,"dropped":0}` + "\n",
	}
	for name, in := range cases {
		if _, _, err := ReadTimeline(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}

// FuzzReadTimeline feeds ReadTimeline any bytes, seeded with a real
// export and the malformed cases above: no panic, and either an error of
// a documented type with no samples, or a header of the writer's schema
// and positive capacity with at most capacity samples.
func FuzzReadTimeline(f *testing.F) {
	_, tl, c, g, _ := timelineFixture(3)
	for round := 0; round < 5; round++ {
		c.Inc()
		g.Set(float64(round) / 4)
		tl.Sample(round, float64(round), SeriesValue{Name: "extra", Value: float64(round % 2)})
	}
	var buf bytes.Buffer
	if err := tl.WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	header := `{"schema":"floatfl-timeline/v1","capacity":1,"dropped":0}` + "\n"
	for _, in := range []string{"", "not json\n", header, header + "\n" + `{"round":1,"clock":2,"values":{"a":1e999}}` + "\n",
		header + `{"round":1}` + "\n" + `{"round":2}` + "\n"} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, samples, err := ReadTimeline(bytes.NewReader(data))
		if err != nil {
			var fe *TimelineFormatError
			var ce *TimelineCapacityError
			var se *json.SyntaxError
			var te *json.UnmarshalTypeError
			if !errors.As(err, &fe) && !errors.As(err, &ce) && !errors.As(err, &se) && !errors.As(err, &te) && !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			if samples != nil {
				t.Fatalf("error %v with %d samples", err, len(samples))
			}
			return
		}
		if hdr.Schema != timelineSchema || hdr.Capacity <= 0 || len(samples) > hdr.Capacity {
			t.Fatalf("accepted header %+v with %d samples", hdr, len(samples))
		}
	})
}

// timelineState spells a timeline checkpoint section by hand, so the
// restore validations can be fed states no timeline would write.
type timelineState struct {
	capacity, dropped int
	names             []string
	samples           []sample
}

func (st timelineState) encode() []byte {
	e := checkpoint.NewEnc(0)
	e.Int(st.capacity)
	e.Int(st.dropped)
	e.Uvarint(uint64(len(st.names)))
	for _, name := range st.names {
		e.String(name)
	}
	for range st.names {
		e.Float64(0)
	}
	e.Uvarint(uint64(len(st.samples)))
	for _, s := range st.samples {
		e.Int(s.round)
		e.Float64(s.clock)
		e.RawBytes(s.pairs)
	}
	return e.Bytes()
}

// TestTimelineRestoreRejectsInvalidState feeds RestoreCheckpoint sections
// that parse but cannot be a timeline's. Each is a *checkpoint.FormatError
// (they were bare fmt.Errorf values) and none touches the timeline.
func TestTimelineRestoreRejectsInvalidState(t *testing.T) {
	_, tl, _, _, _ := timelineFixture(4)
	tl.Sample(0, 0)
	before, err := tl.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	pair := func(idx int) []byte { return appendPair(nil, idx, 1) }
	cases := map[string][]byte{
		"not a section":   []byte("nope"),
		"zero capacity":   timelineState{capacity: 0}.encode(),
		"negative drops":  timelineState{capacity: 4, dropped: -1}.encode(),
		"overfull":        timelineState{capacity: 1, samples: []sample{{round: 0}, {round: 1}}}.encode(),
		"rounds not incr": timelineState{capacity: 4, samples: []sample{{round: 1}, {round: 1}}}.encode(),
		"repeated name":   timelineState{capacity: 4, names: []string{"a", "a"}}.encode(),
		"unknown series":  timelineState{capacity: 4, names: []string{"a"}, samples: []sample{{pairs: pair(1)}}}.encode(),
		"pairs not incr":  timelineState{capacity: 4, names: []string{"a", "b"}, samples: []sample{{pairs: append(pair(1), pair(0)...)}}}.encode(),
		"short pair":      timelineState{capacity: 4, names: []string{"a"}, samples: []sample{{pairs: pair(0)[:5]}}}.encode(),
	}
	for name, in := range cases {
		var fe *checkpoint.FormatError
		if err := tl.RestoreCheckpoint(in); !errors.As(err, &fe) {
			t.Errorf("%s: got %v, want FormatError", name, err)
		}
	}
	// The hand-spelled form is the real one: a well-formed state restores.
	ok := timelineState{capacity: 4, names: []string{"a", "b"}, samples: []sample{{round: 3, pairs: append(pair(0), pair(1)...)}}}
	if err := NewTimeline(nil, 9).RestoreCheckpoint(ok.encode()); err != nil {
		t.Fatalf("well-formed state: %v", err)
	}
	// Validate-before-mutate: the failed restores left the timeline
	// untouched.
	after, err := tl.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("rejected restore mutated the timeline")
	}
}

// TestTimelineRestoredRingKeepsSampling pins what the restored storage
// must still do: a restored ring that is already full folds on the next
// sample exactly as the original does, and an unchanged registry yields an
// empty sample against the carried-forward view.
func TestTimelineRestoredRingKeepsSampling(t *testing.T) {
	regA, tlA, cA, gA, _ := timelineFixture(4)
	for round := 0; round < 6; round++ { // overflow the ring on purpose
		cA.Inc()
		gA.Set(float64(round))
		tlA.Sample(round, float64(round))
	}
	state, err := tlA.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	regB := NewRegistry()
	tlB := NewTimeline(regB, 4)
	if err := tlB.RestoreCheckpoint(state); err != nil {
		t.Fatal(err)
	}
	if err := regB.RestoreSnapshot(regA.Snapshot()); err != nil {
		t.Fatal(err)
	}
	tlA.Sample(6, 6)
	tlB.Sample(6, 6)
	if s := tlB.Samples(); len(s[len(s)-1].Values) != 0 {
		t.Fatalf("post-restore sample should be empty, got %v", s[len(s)-1].Values)
	}
	var a, b bytes.Buffer
	if err := tlA.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := tlB.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("export after one more sample differs:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
}

func TestTimelineSamplesSince(t *testing.T) {
	_, tl, c, _, _ := timelineFixture(8)
	for round := 0; round < 4; round++ {
		c.Inc()
		tl.Sample(round, float64(round))
	}
	if got := len(tl.SamplesSince(-1)); got != 4 {
		t.Fatalf("since -1: %d, want 4", got)
	}
	inc := tl.SamplesSince(1)
	if len(inc) != 2 || inc[0].Round != 2 || inc[1].Round != 3 {
		t.Fatalf("since 1: %+v", inc)
	}
	if got := len(tl.SamplesSince(3)); got != 0 {
		t.Fatalf("since 3: %d, want 0", got)
	}
	if got := tl.LatestRound(); got != 3 {
		t.Fatalf("latest = %d, want 3", got)
	}
	// The returned samples are deep copies: mutating them must not corrupt
	// the ring.
	inc[0].Values["t_events_total"] = -99
	if v := tl.Samples()[2].Values["t_events_total"]; v == -99 {
		t.Fatal("SamplesSince aliases internal state")
	}
}

func TestTimelineHandlerServesIncrementalSamples(t *testing.T) {
	_, tl, c, _, _ := timelineFixture(8)
	for round := 0; round < 3; round++ {
		c.Inc()
		tl.Sample(round, float64(round))
	}
	h := TimelineHandler(tl)

	get := func(url string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
		return w
	}

	w := get("/v1/timeline")
	if w.Code != 200 {
		t.Fatalf("status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var resp TimelineResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Schema != timelineSchema || resp.Latest != 2 || len(resp.Samples) != 3 {
		t.Fatalf("resp = %+v", resp)
	}

	if err := json.Unmarshal(get("/v1/timeline?since=1").Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Samples) != 1 || resp.Samples[0].Round != 2 {
		t.Fatalf("since=1 resp = %+v", resp)
	}

	// Caught-up poll: empty but non-null samples array.
	if err := json.Unmarshal(get("/v1/timeline?since=2").Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Samples == nil || len(resp.Samples) != 0 {
		t.Fatalf("caught-up resp = %+v", resp)
	}

	if w := get("/v1/timeline?since=abc"); w.Code != 400 {
		t.Fatalf("bad since status = %d", w.Code)
	} else if !strings.Contains(w.Body.String(), "error") {
		t.Fatalf("bad since body = %q", w.Body.String())
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/timeline", nil))
	if w.Code != 405 {
		t.Fatalf("POST status = %d", w.Code)
	}
}

func TestMetricsFormatNegotiation(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m_total").Inc()
	h := MetricsHandler(reg)

	do := func(url, accept string) *httptest.ResponseRecorder {
		r := httptest.NewRequest("GET", url, nil)
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}

	if w := do("/v1/metrics", ""); w.Header().Get("Content-Type") != "text/plain; charset=utf-8" {
		t.Fatalf("default Content-Type = %q", w.Header().Get("Content-Type"))
	} else if !strings.Contains(w.Body.String(), "m_total 1") {
		t.Fatalf("text body = %q", w.Body.String())
	}

	for _, req := range []struct{ url, accept string }{
		{"/v1/metrics?format=json", ""},
		{"/v1/metrics", "application/json"},
		{"/v1/metrics", "text/html, application/json;q=0.9"},
	} {
		w := do(req.url, req.accept)
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%+v: Content-Type = %q", req, ct)
		}
		var snap Snapshot
		if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if len(snap.Counters) != 1 || snap.Counters[0].Value != 1 {
			t.Fatalf("%+v: snapshot = %+v", req, snap)
		}
	}

	// ?format= beats the Accept header.
	if w := do("/v1/metrics?format=text", "application/json"); !strings.HasPrefix(w.Header().Get("Content-Type"), "text/plain") {
		t.Fatalf("format=text Content-Type = %q", w.Header().Get("Content-Type"))
	}

	// Unknown format values get a 400 with a typed JSON body.
	w := do("/v1/metrics?format=xml", "")
	if w.Code != 400 {
		t.Fatalf("format=xml status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error Content-Type = %q", ct)
	}
	var eb ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error == "" {
		t.Fatalf("error body = %q (%v)", w.Body.String(), err)
	}
}

// FuzzTimelineRestore feeds RestoreCheckpoint mutations of a real
// timeline section (one that has folded): no panic, success or a typed
// error, memory bounded by a small multiple of the input, a refused
// section leaves the timeline untouched, and an accepted one is a state
// the timeline can keep sampling, exporting and re-snapshotting from.
func FuzzTimelineRestore(f *testing.F) {
	_, src, c, g, h := timelineFixture(4)
	for round := 0; round < 7; round++ {
		c.Inc()
		g.Set(float64(round / 3))
		h.Observe(float64(round))
		src.Sample(round, float64(round), SeriesValue{Name: "extra", Value: float64(round % 2)})
	}
	seed, err := src.CheckpointState()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(timelineState{capacity: 2}.encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		_, tl, c, _, _ := timelineFixture(8)
		tl.Sample(0, 0)
		before, _ := tl.CheckpointState()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := tl.RestoreCheckpoint(data)
		runtime.ReadMemStats(&m1)
		if grew, bound := m1.TotalAlloc-m0.TotalAlloc, uint64(64*len(data)+1<<16); grew > bound {
			t.Fatalf("restoring %d bytes allocated %d (bound %d)", len(data), grew, bound)
		}
		if err != nil {
			var fe *checkpoint.FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("untyped restore error: %v", err)
			}
			if after, _ := tl.CheckpointState(); !bytes.Equal(before, after) {
				t.Fatal("refused restore mutated the timeline")
			}
			return
		}
		if again, _ := tl.CheckpointState(); !bytes.Equal(again, data) {
			t.Fatal("an accepted section does not re-snapshot to itself")
		}
		c.Inc()
		tl.Sample(tl.LatestRound()+1, 1)
		if err := tl.WriteJSONL(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}
