package fl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"floatfl/internal/device"
	"floatfl/internal/opt"
	"floatfl/internal/selection"
	"floatfl/internal/trace"
)

func TestJSONLLoggerRecords(t *testing.T) {
	var buf bytes.Buffer
	l := NewJSONLLogger(&buf)
	l.LogClientRound(ClientRoundLog{Round: 3, ClientID: 7, Technique: "quant8", Completed: true})
	l.LogRoundSummary(RoundSummaryLog{Round: 3, Selected: 10, Completed: 8, Dropped: 2})
	if l.Err() != nil {
		t.Fatal(l.Err())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 JSONL lines, got %d", len(lines))
	}
	var rec taggedRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Type != "client_round" {
		t.Fatalf("first record type %q", rec.Type)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Type != "round_summary" {
		t.Fatalf("second record type %q", rec.Type)
	}
}

// TestLogZeroValuesSurvive is the regression test for the omitempty bug:
// a measured global accuracy of exactly zero and a deadline diff of
// exactly zero are legitimate values and must appear in the JSON, while
// an eval-free round must still omit global_acc entirely.
func TestLogZeroValuesSurvive(t *testing.T) {
	var buf bytes.Buffer
	l := NewJSONLLogger(&buf)
	zero := 0.0
	l.LogRoundSummary(RoundSummaryLog{Round: 1, Selected: 4, GlobalAcc: &zero})
	l.LogRoundSummary(RoundSummaryLog{Round: 2, Selected: 4}) // no eval this round
	l.LogClientRound(ClientRoundLog{Round: 1, ClientID: 0, Completed: true, DeadlineDiff: 0})
	if l.Err() != nil {
		t.Fatal(l.Err())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected 3 JSONL lines, got %d", len(lines))
	}
	if !strings.Contains(lines[0], `"global_acc":0`) {
		t.Errorf("zero global accuracy dropped from the record: %s", lines[0])
	}
	if strings.Contains(lines[1], "global_acc") {
		t.Errorf("eval-free round must omit global_acc: %s", lines[1])
	}
	if !strings.Contains(lines[2], `"deadline_diff":0`) {
		t.Errorf("zero deadline diff dropped from the record: %s", lines[2])
	}

	// Decoding round-trips the distinction: present-and-zero vs absent.
	var withEval, withoutEval RoundSummaryLog
	var env struct {
		Data json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &env); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(env.Data, &withEval); err != nil {
		t.Fatal(err)
	}
	if withEval.GlobalAcc == nil || *withEval.GlobalAcc != 0 {
		t.Errorf("decoded GlobalAcc = %v, want pointer to 0", withEval.GlobalAcc)
	}
	if err := json.Unmarshal([]byte(lines[1]), &env); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(env.Data, &withoutEval); err != nil {
		t.Fatal(err)
	}
	if withoutEval.GlobalAcc != nil {
		t.Errorf("decoded GlobalAcc = %v for eval-free round, want nil", *withoutEval.GlobalAcc)
	}
}

type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, &json.UnsupportedValueError{}
}

func TestJSONLLoggerStopsAfterError(t *testing.T) {
	fw := &failingWriter{}
	l := NewJSONLLogger(fw)
	l.LogClientRound(ClientRoundLog{})
	if l.Err() == nil {
		t.Fatal("write error not captured")
	}
	l.LogClientRound(ClientRoundLog{})
	if fw.n != 1 {
		t.Fatalf("logger kept writing after error: %d writes", fw.n)
	}
}

func TestClientRoundLogFromOutcome(t *testing.T) {
	out := device.Outcome{
		Completed:    false,
		Reason:       device.DropDeadline,
		Cost:         device.Cost{ComputeSeconds: 10, CommSeconds: 5, UploadBytes: 100},
		Resources:    device.Resources{CPUFrac: 0.3, NetFrac: 0.4, BandwidthMbps: 12, Battery: 0.8},
		DeadlineDiff: 0.25,
	}
	rec := clientRoundLog(9, 4, opt.TechPrune50, out, -0.01)
	if rec.Round != 9 || rec.ClientID != 4 || rec.Technique != "prune50" {
		t.Fatalf("identity fields wrong: %+v", rec)
	}
	if rec.Completed || rec.Reason != "deadline" {
		t.Fatalf("dropout fields wrong: %+v", rec)
	}
	if rec.ComputeSeconds != 10 || rec.DeadlineDiff != 0.25 || rec.AccImprove != -0.01 {
		t.Fatalf("cost/reward fields wrong: %+v", rec)
	}
	// Completed outcomes leave Reason empty (omitted in JSON).
	out.Completed = true
	out.Reason = device.DropNone
	rec = clientRoundLog(9, 4, opt.TechPrune50, out, 0.02)
	if rec.Reason != "" {
		t.Fatalf("completed record should omit reason, got %q", rec.Reason)
	}
}

func TestRunSyncEmitsLogs(t *testing.T) {
	fed, pop := testSetup(t, 16, trace.ScenarioDynamic)
	var buf bytes.Buffer
	cfg := smallConfig()
	cfg.Rounds = 4
	cfg.Logger = NewJSONLLogger(&buf)
	if _, err := runSync(fed, pop, selection.NewRandom(3), NoOpController{}, cfg); err != nil {
		t.Fatal(err)
	}
	var clientRecs, summaryRecs int
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec taggedRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("invalid JSONL line: %v", err)
		}
		switch rec.Type {
		case "client_round":
			clientRecs++
		case "round_summary":
			summaryRecs++
		default:
			t.Fatalf("unknown record type %q", rec.Type)
		}
	}
	if clientRecs != 4*cfg.ClientsPerRound {
		t.Fatalf("client records %d, want %d", clientRecs, 4*cfg.ClientsPerRound)
	}
	if summaryRecs != 4 {
		t.Fatalf("summary records %d, want 4", summaryRecs)
	}
}

func TestRunAsyncEmitsLogs(t *testing.T) {
	fed, pop := testSetup(t, 20, trace.ScenarioDynamic)
	var buf bytes.Buffer
	cfg := smallConfig()
	cfg.Rounds = 3
	cfg.Concurrency = 10
	cfg.BufferK = 4
	cfg.Logger = NewJSONLLogger(&buf)
	if _, err := runAsync(fed, pop, NoOpController{}, cfg); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("async run emitted no logs")
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var rec taggedRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("invalid JSONL line: %v", err)
		}
		n++
	}
	if n < cfg.Rounds*cfg.BufferK {
		t.Fatalf("too few async log records: %d", n)
	}
}
