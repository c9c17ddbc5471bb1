package report

import (
	"fmt"
	"io"
	"sort"

	"floatfl/internal/obs"
)

// TimelineRun is a timeline JSONL export as its samples encode it: each
// retained round's clock and the series whose value it changed. A series
// keeps its value until a later round changes it; DiffTimelines carries
// the values forward as it walks, so a run costs memory in proportion to
// its file rather than to rounds × series.
type TimelineRun struct {
	Header obs.TimelineHeader
	// Rounds lists the retained rounds in export order (strictly
	// increasing by construction).
	Rounds []int
	// Clock[i] is the simulated/serving clock at Rounds[i].
	Clock []float64
	// Deltas[i] holds the series values set at Rounds[i].
	Deltas []map[string]float64
}

// LoadTimelineRun parses a timeline export (obs.Timeline.WriteJSONL),
// keeping each round's delta as the file states it.
func LoadTimelineRun(r io.Reader) (*TimelineRun, error) {
	hdr, samples, err := obs.ReadTimeline(r)
	if err != nil {
		return nil, err
	}
	run := &TimelineRun{
		Header: hdr,
		Rounds: make([]int, len(samples)),
		Clock:  make([]float64, len(samples)),
		Deltas: make([]map[string]float64, len(samples)),
	}
	for i, s := range samples {
		run.Rounds[i], run.Clock[i], run.Deltas[i] = s.Round, s.Clock, s.Values
	}
	return run, nil
}

// SeriesDiff reports the first round at which one series disagrees
// between two runs.
type SeriesDiff struct {
	Name  string
	Round int
	// A and B are the absolute values at Round; HasA/HasB are false when
	// the series does not exist in that run at that round (presence
	// itself is the divergence).
	A, B       float64
	HasA, HasB bool
}

// Delta returns B-A when both sides are present, 0 otherwise.
func (d SeriesDiff) Delta() float64 {
	if d.HasA && d.HasB {
		return d.B - d.A
	}
	return 0
}

// TimelineDiff is the comparison of two timeline exports.
type TimelineDiff struct {
	RoundsA, RoundsB int
	// RoundMismatch is set when the retained round sequences themselves
	// differ (different lengths or values) — the runs cannot be fully
	// aligned; the common prefix is still compared.
	RoundMismatch bool
	// Series holds one entry per divergent series, sorted by name.
	Series []SeriesDiff
}

// Identical reports whether the two exports describe the same run.
func (d *TimelineDiff) Identical() bool {
	return !d.RoundMismatch && len(d.Series) == 0
}

// FirstDivergentRound returns the earliest round at which any series
// diverges, or -1 when the runs are identical round-for-round.
func (d *TimelineDiff) FirstDivergentRound() int {
	first := -1
	for _, s := range d.Series {
		if first == -1 || s.Round < first {
			first = s.Round
		}
	}
	return first
}

// DiffTimelines aligns two reconstructed runs round by round and returns
// the first divergence per series. The clock is compared as the
// pseudo-series "(clock)".
func DiffTimelines(a, b *TimelineRun) *TimelineDiff {
	d := &TimelineDiff{RoundsA: len(a.Rounds), RoundsB: len(b.Rounds)}
	common := len(a.Rounds)
	if len(b.Rounds) < common {
		common = len(b.Rounds)
	}
	for i := 0; i < common; i++ {
		if a.Rounds[i] != b.Rounds[i] {
			d.RoundMismatch = true
			common = i
			break
		}
	}
	if len(a.Rounds) != len(b.Rounds) {
		d.RoundMismatch = true
	}

	for i := 0; i < common; i++ {
		if a.Clock[i] != b.Clock[i] {
			d.Series = append(d.Series, SeriesDiff{
				Name: "(clock)", Round: a.Rounds[i],
				A: a.Clock[i], B: b.Clock[i], HasA: true, HasB: true,
			})
			break
		}
	}
	// Walk both runs' values forward. A series that agrees at one round
	// can first disagree only at a round whose delta names it, on either
	// side, so only those names are compared.
	curA, curB := make(map[string]float64), make(map[string]float64)
	diverged := make(map[string]bool)
	for i := 0; i < common; i++ {
		for k, v := range a.Deltas[i] {
			curA[k] = v
		}
		for k, v := range b.Deltas[i] {
			curB[k] = v
		}
		for _, delta := range [2]map[string]float64{a.Deltas[i], b.Deltas[i]} {
			for name := range delta {
				va, oka := curA[name]
				vb, okb := curB[name]
				if diverged[name] || (oka == okb && va == vb) {
					continue
				}
				diverged[name] = true
				//lint:allow map-order-hazard one entry per series name, and d.Series is sorted by name below
				d.Series = append(d.Series, SeriesDiff{
					Name: name, Round: a.Rounds[i],
					A: va, B: vb, HasA: oka, HasB: okb,
				})
			}
		}
	}
	sort.Slice(d.Series, func(i, j int) bool { return d.Series[i].Name < d.Series[j].Name })
	return d
}

// Fprint renders the diff. labelA/labelB identify the two inputs (file
// names in the CLI).
func (d *TimelineDiff) Fprint(w io.Writer, labelA, labelB string) {
	fmt.Fprintf(w, "timeline diff: A=%s (%d rounds)  B=%s (%d rounds)\n",
		labelA, d.RoundsA, labelB, d.RoundsB)
	if d.Identical() {
		fmt.Fprintln(w, "  identical")
		return
	}
	if d.RoundMismatch {
		fmt.Fprintln(w, "  retained round sequences differ; comparing common prefix")
	}
	if first := d.FirstDivergentRound(); first >= 0 {
		fmt.Fprintf(w, "  first divergent round: %d\n", first)
	}
	if len(d.Series) > 0 {
		fmt.Fprintf(w, "  %-40s %8s %14s %14s %14s\n", "series", "round", "A", "B", "delta")
		for _, s := range d.Series {
			av, bv := fmtSeriesVal(s.A, s.HasA), fmtSeriesVal(s.B, s.HasB)
			fmt.Fprintf(w, "  %-40s %8d %14s %14s %14.6g\n", s.Name, s.Round, av, bv, s.Delta())
		}
	}
}

func fmtSeriesVal(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.6g", v)
}
