// Package report post-processes the JSONL training logs emitted by the fl
// engines (fl.JSONLLogger) into the summaries the paper's artifact derives
// from its `<dataset>_logging` files: per-round participation curves,
// per-technique outcome tallies, dropout-cause breakdowns, per-client
// participation histograms, and resource totals. It is the analysis half
// of the logging pipeline, used by the floatreport CLI and by tests that
// validate the logs' integrity. It also owns the run directory layout the
// writers and the reader share, summarizes traces and diffs timelines.
package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"floatfl/internal/fl"
)

// Summary is the aggregate view of one training log.
type Summary struct {
	ClientRounds int
	Completed    int
	Dropped      int

	// ByTechnique maps technique name to (success, failure) counts.
	ByTechnique map[string]Outcomes
	// ByReason maps dropout reason to count.
	ByReason map[string]int

	// PerClient maps client ID to its participation record.
	PerClient map[int]Outcomes

	// Rounds is the per-round summary series in order of appearance.
	Rounds []fl.RoundSummaryLog

	// Totals across every client-round record.
	ComputeHours   float64
	CommHours      float64
	UploadGB       float64
	DownloadGB     float64
	MeanAccGain    float64
	accGainSamples int
}

// Outcomes is a success/failure pair.
type Outcomes struct {
	Success int
	Failure int
}

// Total returns Success + Failure.
func (o Outcomes) Total() int { return o.Success + o.Failure }

// Parse reads a JSONL training log and builds the summary. Unknown record
// types are skipped (forward compatibility); malformed lines are errors.
func Parse(r io.Reader) (*Summary, error) {
	s := &Summary{
		ByTechnique: make(map[string]Outcomes),
		ByReason:    make(map[string]int),
		PerClient:   make(map[int]Outcomes),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var env struct {
			Type string          `json:"type"`
			Data json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(line, &env); err != nil {
			return nil, fmt.Errorf("report: line %d: %w", lineNo, err)
		}
		switch env.Type {
		case "client_round":
			var rec fl.ClientRoundLog
			if err := json.Unmarshal(env.Data, &rec); err != nil {
				return nil, fmt.Errorf("report: line %d: %w", lineNo, err)
			}
			s.ingestClientRound(rec)
		case "round_summary":
			var rec fl.RoundSummaryLog
			if err := json.Unmarshal(env.Data, &rec); err != nil {
				return nil, fmt.Errorf("report: line %d: %w", lineNo, err)
			}
			s.Rounds = append(s.Rounds, rec)
		default:
			// Skip unknown record types.
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("report: reading log: %w", err)
	}
	if s.accGainSamples > 0 {
		s.MeanAccGain /= float64(s.accGainSamples)
	}
	return s, nil
}

func (s *Summary) ingestClientRound(rec fl.ClientRoundLog) {
	s.ClientRounds++
	tech := s.ByTechnique[rec.Technique]
	client := s.PerClient[rec.ClientID]
	if rec.Completed {
		s.Completed++
		tech.Success++
		client.Success++
		s.MeanAccGain += rec.AccImprove
		s.accGainSamples++
	} else {
		s.Dropped++
		tech.Failure++
		client.Failure++
		if rec.Reason != "" {
			s.ByReason[rec.Reason]++
		}
	}
	s.ByTechnique[rec.Technique] = tech
	s.PerClient[rec.ClientID] = client
	s.ComputeHours += rec.ComputeSeconds / 3600
	s.CommHours += rec.CommSeconds / 3600
	s.UploadGB += rec.UploadBytes / 1e9
	s.DownloadGB += rec.DownloadBytes / 1e9
}

// DropRate returns dropped / total client-rounds.
func (s *Summary) DropRate() float64 {
	if s.ClientRounds == 0 {
		return 0
	}
	return float64(s.Dropped) / float64(s.ClientRounds)
}

// TechniqueNames returns the observed techniques sorted by total usage
// (descending), ties broken alphabetically.
func (s *Summary) TechniqueNames() []string {
	names := make([]string, 0, len(s.ByTechnique))
	for name := range s.ByTechnique {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		ti, tj := s.ByTechnique[names[i]].Total(), s.ByTechnique[names[j]].Total()
		if ti != tj {
			return ti > tj
		}
		return names[i] < names[j]
	})
	return names
}

// NeverCompleted returns the IDs of clients that were selected but never
// completed a round, sorted ascending.
func (s *Summary) NeverCompleted() []int {
	var out []int
	for id, o := range s.PerClient {
		if o.Success == 0 && o.Failure > 0 {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// ParticipationTrend returns per-round completion fractions from the
// round summaries (empty if none were logged).
func (s *Summary) ParticipationTrend() []float64 {
	out := make([]float64, 0, len(s.Rounds))
	for _, r := range s.Rounds {
		if r.Selected == 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, float64(r.Completed)/float64(r.Selected))
	}
	return out
}

// Fprint renders the summary as human-readable text.
func (s *Summary) Fprint(w io.Writer) {
	fmt.Fprintf(w, "client-rounds: %d   completed: %d   dropped: %d (%.1f%%)\n",
		s.ClientRounds, s.Completed, s.Dropped, s.DropRate()*100)
	if len(s.ByReason) > 0 {
		fmt.Fprintln(w, "dropout causes:")
		reasons := make([]string, 0, len(s.ByReason))
		for r := range s.ByReason {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			fmt.Fprintf(w, "  %-12s %d\n", r, s.ByReason[r])
		}
	}
	fmt.Fprintln(w, "per-technique outcomes:")
	for _, name := range s.TechniqueNames() {
		o := s.ByTechnique[name]
		fmt.Fprintf(w, "  %-10s success %5d   failure %5d\n", name, o.Success, o.Failure)
	}
	fmt.Fprintf(w, "resources: compute %.2f h   comm %.2f h   upload %.2f GB   download %.2f GB\n",
		s.ComputeHours, s.CommHours, s.UploadGB, s.DownloadGB)
	fmt.Fprintf(w, "mean accuracy gain per completed round: %+.4f\n", s.MeanAccGain)
	if never := s.NeverCompleted(); len(never) > 0 {
		fmt.Fprintf(w, "clients never completing: %v\n", never)
	}
}
