package report

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"floatfl/internal/obs"
	"floatfl/internal/rl"
)

// The fixed file names of a run directory. floatsim -out and floatbench
// -out write them; floatreport reads them. Each file keeps the format of
// the code that produces it.
const (
	LogFile      = "log.jsonl"      // fl.JSONLLogger training log
	MetricsFile  = "metrics.txt"    // obs.Registry text exposition
	TraceFile    = "trace.jsonl"    // obs.Tracer phase trace
	TimelineFile = "timeline.jsonl" // obs.Timeline per-round export
	SnapshotFile = "snapshot.ck"    // fl engine snapshot (checkpoint frame)
	AgentFile    = "agent.ck"       // rl.Agent.Save snapshot
)

// WriteTelemetry writes each non-nil telemetry channel into dir under its
// fixed name. A failed file does not stop the others; every error is
// returned, joined.
func WriteTelemetry(dir string, reg *obs.Registry, tr *obs.Tracer, tl *obs.Timeline) error {
	var errs []error
	write := func(name string, fill func(io.Writer) error) {
		f, err := os.Create(filepath.Join(dir, name))
		if err == nil {
			err = errors.Join(fill(f), f.Close())
		}
		errs = append(errs, err)
	}
	if reg != nil {
		write(MetricsFile, reg.WriteText)
	}
	if tr != nil {
		write(TraceFile, tr.WriteJSONL)
	}
	if tl != nil {
		write(TimelineFile, tl.WriteJSONL)
	}
	return errors.Join(errs...)
}

// FprintActions renders the per-action learned objectives — the Fig 10
// bars — one row per action in the order given.
func FprintActions(w io.Writer, actions []rl.ActionStats) {
	fmt.Fprintf(w, "  %-10s %12s %12s %8s\n", "action", "P(success)", "acc-improve", "visits")
	for _, st := range actions {
		fmt.Fprintf(w, "  %-10s %12.3f %12.3f %8d\n", st.Technique, st.Part, st.Acc, st.Visits)
	}
}
