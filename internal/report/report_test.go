package report

import (
	"bytes"
	"strings"
	"testing"

	"floatfl/internal/core"
	"floatfl/internal/data"
	"floatfl/internal/device"
	"floatfl/internal/fl"
	"floatfl/internal/population"
	"floatfl/internal/rl"
	"floatfl/internal/selection"
	"floatfl/internal/trace"
)

// trainingLog runs a short FLOAT training and returns its JSONL log.
func trainingLog(t *testing.T) (*bytes.Buffer, *fl.Result) {
	t.Helper()
	fed, err := data.Generate("femnist", data.GenerateConfig{Clients: 20, Alpha: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pop, err := device.NewPopulation(device.PopulationConfig{
		Clients: 20, Scenario: trace.ScenarioDynamic, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ctrl := core.New(core.Config{
		Agent:     rl.Config{Seed: 4, TotalRounds: 10},
		BatchSize: 16, Epochs: 1, ClientsPerRound: 8,
	})
	p, err := population.WrapEager(fed, pop)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fl.RunSyncPop(p, selection.NewRandom(4), ctrl, fl.Config{
		Arch: "resnet18", Rounds: 10, ClientsPerRound: 8,
		Epochs: 1, BatchSize: 16, LR: 0.1, DeadlinePercentile: 50,
		Seed: 5, Logger: fl.NewJSONLLogger(&buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &buf, res
}

func TestParseMatchesLedger(t *testing.T) {
	buf, res := trainingLog(t)
	sum, err := Parse(buf)
	if err != nil {
		t.Fatal(err)
	}
	l := res.Ledger
	if sum.ClientRounds != l.TotalRounds {
		t.Fatalf("client-rounds %d, ledger %d", sum.ClientRounds, l.TotalRounds)
	}
	if sum.Dropped != l.TotalDrops {
		t.Fatalf("dropped %d, ledger %d", sum.Dropped, l.TotalDrops)
	}
	if sum.Completed != l.TotalRounds-l.TotalDrops {
		t.Fatalf("completed %d", sum.Completed)
	}
	// Per-technique tallies must match the ledger exactly.
	for name, o := range sum.ByTechnique {
		found := false
		for tech, n := range l.TechSuccess {
			if tech.String() == name && n == o.Success {
				found = true
			}
		}
		if o.Success > 0 && !found {
			t.Fatalf("technique %s success=%d not in ledger", name, o.Success)
		}
	}
	if len(sum.Rounds) != 10 {
		t.Fatalf("round summaries %d, want 10", len(sum.Rounds))
	}
	if sum.ComputeHours <= 0 || sum.DownloadGB <= 0 {
		t.Fatalf("resource totals not accumulated: %+v", sum)
	}
}

func TestParseEmptyAndGarbage(t *testing.T) {
	sum, err := Parse(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if sum.ClientRounds != 0 || sum.DropRate() != 0 {
		t.Fatal("empty log should produce an empty summary")
	}
	if _, err := Parse(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage line accepted")
	}
	// Unknown record types are skipped.
	sum, err = Parse(strings.NewReader(`{"type":"future_thing","data":{}}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if sum.ClientRounds != 0 {
		t.Fatal("unknown record type was counted")
	}
}

func TestParseMalformedData(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"type":"client_round","data":"nope"}` + "\n")); err == nil {
		t.Fatal("malformed client_round accepted")
	}
	if _, err := Parse(strings.NewReader(`{"type":"round_summary","data":[1]}` + "\n")); err == nil {
		t.Fatal("malformed round_summary accepted")
	}
}

func TestTechniqueNamesOrdering(t *testing.T) {
	s := &Summary{ByTechnique: map[string]Outcomes{
		"a": {Success: 1}, "b": {Success: 5}, "c": {Success: 1},
	}}
	names := s.TechniqueNames()
	if names[0] != "b" {
		t.Fatalf("most-used technique should sort first: %v", names)
	}
	if names[1] != "a" || names[2] != "c" {
		t.Fatalf("ties should break alphabetically: %v", names)
	}
}

func TestNeverCompleted(t *testing.T) {
	s := &Summary{PerClient: map[int]Outcomes{
		0: {Success: 2, Failure: 1},
		3: {Failure: 4},
		7: {Failure: 1},
	}}
	got := s.NeverCompleted()
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("NeverCompleted = %v", got)
	}
}

func TestParticipationTrend(t *testing.T) {
	s := &Summary{Rounds: []fl.RoundSummaryLog{
		{Selected: 10, Completed: 5},
		{Selected: 10, Completed: 8},
		{Selected: 0, Completed: 0},
	}}
	trend := s.ParticipationTrend()
	if len(trend) != 3 || trend[0] != 0.5 || trend[1] != 0.8 || trend[2] != 0 {
		t.Fatalf("trend = %v", trend)
	}
}

func TestFprintRenders(t *testing.T) {
	buf, _ := trainingLog(t)
	sum, err := Parse(buf)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sum.Fprint(&out)
	text := out.String()
	for _, want := range []string{"client-rounds:", "per-technique outcomes:", "resources:"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
}

func TestOutcomesTotal(t *testing.T) {
	if (Outcomes{Success: 2, Failure: 3}).Total() != 5 {
		t.Fatal("Total broken")
	}
}
