package report

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"floatfl/internal/obs"
)

// exportTimeline samples a scripted sequence of registry states into a
// fresh timeline and returns its JSONL export.
func exportTimeline(t *testing.T, rounds []map[string]float64) string {
	t.Helper()
	tl := obs.NewTimeline(nil, 16)
	for round, values := range rounds {
		extra := make([]obs.SeriesValue, 0, len(values))
		// Deterministic order not required for correctness (Sample builds a
		// map), but keep the fixture simple: one series per entry.
		for _, name := range sortedKeys(values) {
			extra = append(extra, obs.SeriesValue{Name: name, Value: values[name]})
		}
		tl.Sample(round, float64(round), extra...)
	}
	var buf bytes.Buffer
	if err := tl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestLoadTimelineRunCarriesDeltasForward(t *testing.T) {
	export := exportTimeline(t, []map[string]float64{
		{"acc": 0.1, "sel": 4},
		{"acc": 0.2, "sel": 4}, // sel unchanged → delta omits it
		{"acc": 0.3, "sel": 5},
	})
	run, err := LoadTimelineRun(strings.NewReader(export))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Rounds) != 3 {
		t.Fatalf("rounds = %v", run.Rounds)
	}
	// The run keeps the deltas as exported: round 1's omits sel.
	if _, ok := run.Deltas[1]["sel"]; ok || run.Deltas[2]["sel"] != 5 {
		t.Fatalf("deltas = %v", run.Deltas)
	}
	// The diff carries sel=4 forward into round 1: an export that states
	// every value at every round is the same run, and one that sets sel
	// to 7 at round 1 differs there.
	full := func(sel1 float64) *TimelineRun {
		t.Helper()
		in := `{"schema":"floatfl-timeline/v1","capacity":3,"dropped":0}
{"round":0,"clock":0,"values":{"acc":0.1,"sel":4}}
{"round":1,"clock":1,"values":{"acc":0.2,"sel":` + fmt.Sprint(sel1) + `}}
{"round":2,"clock":2,"values":{"acc":0.3,"sel":5}}
`
		r, err := LoadTimelineRun(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if d := DiffTimelines(run, full(4)); !d.Identical() {
		t.Fatalf("delta export vs full export: %+v", d)
	}
	d := DiffTimelines(run, full(7))
	if len(d.Series) != 1 || d.Series[0].Name != "sel" || d.Series[0].Round != 1 || d.Series[0].A != 4 || d.Series[0].B != 7 {
		t.Fatalf("sel carried forward wrongly: %+v", d.Series)
	}
}

// growingTimeline is a timeline export of n samples, the i-th adding a
// new series: the shape whose carried-forward table is O(n²).
func growingTimeline(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"schema":"floatfl-timeline/v1","capacity":%d,"dropped":0}`+"\n", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"round":%d,"clock":%d,"values":{"series_%d":%d}}`+"\n", i, i, i, i)
	}
	return b.String()
}

// TestLoadAndDiffAllocateLinearly turns ROADMAP 13(a)'s measurement into a
// bound: a run that adds one series per sample used to allocate 6.0 MB at
// 500 lines and 91.4 MB at 2,000, quadratic in the file. Loading two such
// runs and diffing them must allocate in proportion to the input: four
// times the lines may cost at most six times the bytes, and every input
// byte at most 200 allocated bytes.
func TestLoadAndDiffAllocateLinearly(t *testing.T) {
	allocated := func(in string) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a, err := LoadTimelineRun(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		b, err := LoadTimelineRun(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if d := DiffTimelines(a, b); !d.Identical() {
			t.Fatalf("a run differs from itself: %+v", d.Series[0])
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := growingTimeline(500), growingTimeline(2000)
	s, l := allocated(small), allocated(large)
	t.Logf("500 lines (%d B): %d B allocated; 2,000 lines (%d B): %d B", len(small), s, len(large), l)
	if l > 6*s {
		t.Errorf("4× the lines allocated %.1f× the bytes, want ≤ 6×", float64(l)/float64(s))
	}
	if l > 200*uint64(len(large)) {
		t.Errorf("%d input bytes allocated %d bytes, want ≤ 200 per input byte", len(large), l)
	}
}

// A sample past the header's capacity is refused with a typed error before
// it is decoded.
func TestLoadTimelineRunRefusesSamplesPastCapacity(t *testing.T) {
	in := `{"schema":"floatfl-timeline/v1","capacity":1,"dropped":0}
{"round":0,"clock":0,"values":{"a":1}}
{"round":1,"clock":1,"values":{"b":2}}
`
	_, err := LoadTimelineRun(strings.NewReader(in))
	var capErr *obs.TimelineCapacityError
	if !errors.As(err, &capErr) || capErr.Capacity != 1 || capErr.Line != 3 {
		t.Fatalf("err = %v, want a TimelineCapacityError at line 3", err)
	}
}

func TestDiffTimelinesIdentical(t *testing.T) {
	rounds := []map[string]float64{
		{"acc": 0.1, "sel": 4},
		{"acc": 0.2, "sel": 4},
	}
	a, err := LoadTimelineRun(strings.NewReader(exportTimeline(t, rounds)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadTimelineRun(strings.NewReader(exportTimeline(t, rounds)))
	if err != nil {
		t.Fatal(err)
	}
	d := DiffTimelines(a, b)
	if !d.Identical() {
		t.Fatalf("want identical, got %+v", d)
	}
	if d.FirstDivergentRound() != -1 {
		t.Fatalf("first divergent round = %d, want -1", d.FirstDivergentRound())
	}
	var out bytes.Buffer
	d.Fprint(&out, "a", "b")
	if !strings.Contains(out.String(), "identical") {
		t.Fatalf("render = %q", out.String())
	}
}

func TestDiffTimelinesReportsFirstDivergentRoundPerSeries(t *testing.T) {
	a, err := LoadTimelineRun(strings.NewReader(exportTimeline(t, []map[string]float64{
		{"acc": 0.1, "sel": 4},
		{"acc": 0.2, "sel": 4},
		{"acc": 0.3, "sel": 4},
	})))
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadTimelineRun(strings.NewReader(exportTimeline(t, []map[string]float64{
		{"acc": 0.1, "sel": 4},
		{"acc": 0.25, "sel": 4}, // acc diverges at round 1
		{"acc": 0.35, "sel": 6}, // sel diverges at round 2
	})))
	if err != nil {
		t.Fatal(err)
	}
	d := DiffTimelines(a, b)
	if d.Identical() {
		t.Fatal("want divergence")
	}
	if got := d.FirstDivergentRound(); got != 1 {
		t.Fatalf("first divergent round = %d, want 1", got)
	}
	byName := map[string]SeriesDiff{}
	for _, s := range d.Series {
		byName[s.Name] = s
	}
	if s := byName["acc"]; s.Round != 1 || s.A != 0.2 || s.B != 0.25 {
		t.Fatalf("acc diff = %+v", s)
	}
	if s := byName["sel"]; s.Round != 2 || s.A != 4 || s.B != 6 {
		t.Fatalf("sel diff = %+v", s)
	}
	var out bytes.Buffer
	d.Fprint(&out, "a", "b")
	if !strings.Contains(out.String(), "first divergent round: 1") {
		t.Fatalf("render = %q", out.String())
	}
}

func TestDiffTimelinesSeriesPresenceAndLengthMismatch(t *testing.T) {
	a, err := LoadTimelineRun(strings.NewReader(exportTimeline(t, []map[string]float64{
		{"acc": 0.1, "only_a": 1},
		{"acc": 0.2, "only_a": 1},
	})))
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadTimelineRun(strings.NewReader(exportTimeline(t, []map[string]float64{
		{"acc": 0.1},
	})))
	if err != nil {
		t.Fatal(err)
	}
	d := DiffTimelines(a, b)
	if !d.RoundMismatch {
		t.Fatal("want RoundMismatch for different lengths")
	}
	found := false
	for _, s := range d.Series {
		if s.Name == "only_a" && s.HasA && !s.HasB && s.Round == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing presence divergence for only_a: %+v", d.Series)
	}
}
