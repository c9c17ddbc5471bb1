package report

import (
	"fmt"
	"io"
	"sort"

	"floatfl/internal/obs"
)

// TraceSummary is the aggregate view of one JSONL phase trace
// (obs.Tracer output, written by floatsim/floatbench -out or the
// aggregator's tracer): where the virtual time went per phase, which
// clients were slowest, and the timeline of noteworthy events (drops,
// lease expiries, round-timer fires, stale discards).
type TraceSummary struct {
	Spans int
	// Phases is the total duration per span kind, sorted by descending
	// total (ties by name) so the dominant phase leads.
	Phases []PhaseTotal
	// SlowestClients ranks clients by summed train+comm span duration,
	// descending, capped at ten entries.
	SlowestClients []ClientTotal
	// Events is every zero-duration incident span (drop, discard,
	// lease_expiry, round_timer, register) in emission order.
	Events []obs.Span
}

// PhaseTotal is one phase's share of the trace.
type PhaseTotal struct {
	Kind    string
	Count   int
	Seconds float64
}

// ClientTotal is one client's summed busy time.
type ClientTotal struct {
	Client  int
	Spans   int
	Seconds float64
}

// eventKinds are the incident span kinds surfaced on the timeline.
var eventKinds = map[string]bool{
	"drop":         true,
	"discard":      true,
	"lease_expiry": true,
	"round_timer":  true,
	"register":     true,
}

// ParseTrace reads a JSONL span trace and builds the summary.
func ParseTrace(r io.Reader) (*TraceSummary, error) {
	spans, err := obs.ReadJSONL(r)
	if err != nil {
		return nil, err
	}
	return SummarizeTrace(spans), nil
}

// SummarizeTrace builds the summary from in-memory spans.
func SummarizeTrace(spans []obs.Span) *TraceSummary {
	ts := &TraceSummary{Spans: len(spans)}
	phase := make(map[string]*PhaseTotal)
	client := make(map[int]*ClientTotal)
	for _, s := range spans {
		p := phase[s.Kind]
		if p == nil {
			p = &PhaseTotal{Kind: s.Kind}
			phase[s.Kind] = p
		}
		p.Count++
		p.Seconds += s.Dur
		if s.Client >= 0 && (s.Kind == "train" || s.Kind == "comm") {
			c := client[s.Client]
			if c == nil {
				c = &ClientTotal{Client: s.Client}
				client[s.Client] = c
			}
			c.Spans++
			c.Seconds += s.Dur
		}
		if eventKinds[s.Kind] {
			ts.Events = append(ts.Events, s)
		}
	}
	// Collect-then-sort: map order never reaches the output.
	for _, p := range phase {
		ts.Phases = append(ts.Phases, *p)
	}
	sort.Slice(ts.Phases, func(i, j int) bool {
		if ts.Phases[i].Seconds != ts.Phases[j].Seconds {
			return ts.Phases[i].Seconds > ts.Phases[j].Seconds
		}
		return ts.Phases[i].Kind < ts.Phases[j].Kind
	})
	for _, c := range client {
		ts.SlowestClients = append(ts.SlowestClients, *c)
	}
	sort.Slice(ts.SlowestClients, func(i, j int) bool {
		if ts.SlowestClients[i].Seconds != ts.SlowestClients[j].Seconds {
			return ts.SlowestClients[i].Seconds > ts.SlowestClients[j].Seconds
		}
		return ts.SlowestClients[i].Client < ts.SlowestClients[j].Client
	})
	if len(ts.SlowestClients) > 10 {
		ts.SlowestClients = ts.SlowestClients[:10]
	}
	return ts
}

// Fprint renders the trace summary as aligned text.
func (ts *TraceSummary) Fprint(w io.Writer) {
	fmt.Fprintf(w, "trace: %d spans\n\n", ts.Spans)

	fmt.Fprintln(w, "phase time breakdown:")
	var total float64
	for _, p := range ts.Phases {
		total += p.Seconds
	}
	for _, p := range ts.Phases {
		pct := 0.0
		if total > 0 {
			pct = p.Seconds / total * 100
		}
		fmt.Fprintf(w, "  %-12s %8d spans  %12.2fs  %5.1f%%\n", p.Kind, p.Count, p.Seconds, pct)
	}

	if len(ts.SlowestClients) > 0 {
		fmt.Fprintln(w, "\nslowest clients (train+comm):")
		for _, c := range ts.SlowestClients {
			fmt.Fprintf(w, "  client %4d  %6d spans  %12.2fs\n", c.Client, c.Spans, c.Seconds)
		}
	}

	if len(ts.Events) > 0 {
		fmt.Fprintln(w, "\nevent timeline:")
		for _, e := range ts.Events {
			note := e.Note
			if note != "" {
				note = " (" + note + ")"
			}
			fmt.Fprintf(w, "  t=%10.2fs  round %4d  client %4d  %s%s\n",
				e.T, e.Round, e.Client, e.Kind, note)
		}
	}
}
