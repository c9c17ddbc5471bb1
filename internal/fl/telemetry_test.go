package fl

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"floatfl/internal/obs"
	"floatfl/internal/selection"
	"floatfl/internal/trace"
)

// TestSyncTraceGolden pins the trace byte stream to a checked-in golden
// file, so any drift in span structure, ordering, or encoding is an
// explicit diff in review. Regenerate with:
//
//	UPDATE_GOLDEN=1 go test ./internal/fl -run TestSyncTraceGolden
func TestSyncTraceGolden(t *testing.T) {
	fed, pop := testSetup(t, 20, trace.ScenarioDynamic)
	cfg := parSyncConfig(8)
	cfg.Tracer = obs.NewTracer()
	if _, err := RunSync(fed, pop, selection.NewRandom(7), newCkptCtrl(), cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	golden := filepath.Join("testdata", "trace_sync.golden.jsonl")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("trace deviates from golden %s (%d vs %d bytes); regenerate with UPDATE_GOLDEN=1 if the change is intended",
			golden, len(got), len(want))
	}
}
