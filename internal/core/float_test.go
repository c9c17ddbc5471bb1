package core

import (
	"bytes"
	"testing"

	"floatfl/internal/data"
	"floatfl/internal/device"
	"floatfl/internal/fl"
	"floatfl/internal/opt"
	"floatfl/internal/population"
	"floatfl/internal/rl"
	"floatfl/internal/selection"
	"floatfl/internal/trace"
)

func testFloat(seed int64) *Float {
	return New(Config{
		Agent:           rl.Config{Seed: seed, TotalRounds: 50},
		BatchSize:       20,
		Epochs:          5,
		ClientsPerRound: 30,
	})
}

func testClient(t *testing.T) *device.Client {
	t.Helper()
	pop, err := device.NewPopulation(device.PopulationConfig{
		Clients: 1, Scenario: trace.ScenarioDynamic, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pop[0]
}

func TestFloatName(t *testing.T) {
	if testFloat(1).Name() != "float" {
		t.Fatal("full FLOAT should be named float")
	}
	noHF := New(Config{Agent: rl.Config{DisableHF: true}, BatchSize: 20, Epochs: 5, ClientsPerRound: 30})
	if noHF.Name() != "float-rl" {
		t.Fatal("HF-disabled FLOAT should be named float-rl")
	}
}

func TestDecideReturnsActionSpaceTechnique(t *testing.T) {
	f := testFloat(2)
	c := testClient(t)
	res := c.ResourcesAt(0)
	tech := f.Decide(0, c, res, 0)
	if tech == opt.TechNone {
		t.Fatal("FLOAT's action space excludes TechNone")
	}
	found := false
	for _, a := range opt.Actions() {
		if a == tech {
			found = true
		}
	}
	if !found {
		t.Fatalf("Decide returned %v, not in the action space", tech)
	}
}

func TestFeedbackUpdatesAgent(t *testing.T) {
	f := testFloat(3)
	c := testClient(t)
	res := c.ResourcesAt(0)
	tech := f.Decide(0, c, res, 0)
	before := f.Agent().Updates()
	f.Feedback(0, c, tech, device.Outcome{Completed: true, Resources: res}, 0.1)
	if f.Agent().Updates() != before+1 {
		t.Fatal("Feedback did not update the agent")
	}
	// Feedback without a prior Decide is ignored.
	f.Feedback(1, c, opt.TechQuant8, device.Outcome{Completed: true}, 0.1)
	if f.Agent().Updates() != before+1 {
		t.Fatal("unmatched feedback should be ignored")
	}
}

func TestFeedbackUsesDecisionState(t *testing.T) {
	// The Q-table update must land on the state the decision was made
	// under, even if resources changed by execution time.
	f := testFloat(4)
	c := testClient(t)
	resRich := device.Resources{Available: true, CPUFrac: 0.79, MemFrac: 0.79, NetFrac: 0.99, BandwidthMbps: 50, Battery: 1}
	tech := f.Decide(0, c, resRich, 0)
	out := device.Outcome{
		Completed: true,
		Resources: device.Resources{Available: true, CPUFrac: 0.01, MemFrac: 0.01, NetFrac: 0.01},
	}
	f.Feedback(0, c, tech, out, 0.2)

	s := f.stateFor(c, resRich, 0)
	for _, e := range f.Agent().PolicyDump() {
		if e.State == s && e.Visits > 0 {
			return
		}
	}
	t.Fatal("update did not land on the decision-time state")
}

func TestSaveLoadAgent(t *testing.T) {
	f := testFloat(5)
	c := testClient(t)
	for i := 0; i < 20; i++ {
		res := c.ResourcesAt(i)
		tech := f.Decide(i, c, res, 0)
		f.Feedback(i, c, tech, device.Outcome{Completed: true, Resources: res}, 0.1)
	}
	var buf bytes.Buffer
	if err := f.SaveAgent(&buf); err != nil {
		t.Fatal(err)
	}
	g := testFloat(6)
	if err := g.LoadAgent(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if g.Agent().StatesVisited() != f.Agent().StatesVisited() {
		t.Fatal("agent transfer lost states")
	}
	if f.String() == "" {
		t.Fatal("String should describe the controller")
	}
}

// aggressiveness ranks how much a technique distorts training, from 0
// for none to 0.8 for the 75 % variants: the scale TestHeuristicRules
// judges the controller's tiers by.
func aggressiveness(t opt.Technique) float64 {
	switch t {
	case opt.TechQuant16, opt.TechCompress:
		return 0.2
	case opt.TechQuant8:
		return 0.6
	case opt.TechPrune25, opt.TechPartial25:
		return 0.25
	case opt.TechPrune50, opt.TechPartial50:
		return 0.5
	case opt.TechPrune75, opt.TechPartial75:
		return 0.8
	}
	return 0
}

func TestHeuristicRules(t *testing.T) {
	h := NewHeuristic(7)
	if h.Name() != "heuristic" {
		t.Fatal("heuristic name")
	}
	// Low CPU + low network -> aggressive tier.
	scarce := device.Resources{CPUFrac: 0.05, MemFrac: 0.5, NetFrac: 0.05}
	for i := 0; i < 50; i++ {
		tech := h.Decide(i, nil, scarce, 0)
		if aggressiveness(tech) < 0.6 {
			t.Fatalf("scarce resources got mild technique %v", tech)
		}
	}
	// Rich resources -> mild tier.
	rich := device.Resources{CPUFrac: 0.7, MemFrac: 0.7, NetFrac: 0.9}
	for i := 0; i < 50; i++ {
		tech := h.Decide(i, nil, rich, 0)
		if aggressiveness(tech) > 0.3 {
			t.Fatalf("rich resources got aggressive technique %v", tech)
		}
	}
	h.Feedback(0, nil, opt.TechQuant8, device.Outcome{}, 0) // no-op, must not panic
}

func TestHeuristicCoversTiers(t *testing.T) {
	h := NewHeuristic(8)
	scarce := device.Resources{CPUFrac: 0.05, NetFrac: 0.05}
	seen := map[opt.Technique]bool{}
	for i := 0; i < 200; i++ {
		seen[h.Decide(i, nil, scarce, 0)] = true
	}
	for _, want := range []opt.Technique{opt.TechPrune75, opt.TechPartial75, opt.TechQuant8} {
		if !seen[want] {
			t.Fatalf("heuristic never chose %v in the aggressive tier", want)
		}
	}
}

// Integration: FLOAT plugged into the sync engine reduces dropouts
// relative to the bare baseline under a tight deadline — the paper's
// headline mechanism.
func TestFloatReducesDropoutsEndToEnd(t *testing.T) {
	run := func(ctrl fl.Controller) *fl.Result {
		fed, err := data.Generate("femnist", data.GenerateConfig{Clients: 30, Alpha: 0.1, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		pop, err := device.NewPopulation(device.PopulationConfig{
			Clients: 30, Scenario: trace.ScenarioDynamic, Seed: 21,
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := population.WrapEager(fed, pop)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fl.RunSyncPop(p, selection.NewRandom(22), ctrl, fl.Config{
			Arch: "resnet18", Rounds: 25, ClientsPerRound: 10,
			Epochs: 2, BatchSize: 16, LR: 0.1,
			DeadlinePercentile: 45, EvalEvery: 25, Seed: 23,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	baseline := run(fl.NoOpController{})
	float := run(New(Config{
		Agent:     rl.Config{Seed: 24, TotalRounds: 25},
		BatchSize: 16, Epochs: 2, ClientsPerRound: 10,
	}))
	if baseline.Ledger.TotalDrops == 0 {
		t.Skip("baseline had no dropouts at this deadline; nothing to rescue")
	}
	if float.Ledger.TotalDrops >= baseline.Ledger.TotalDrops {
		t.Fatalf("FLOAT did not reduce dropouts: float=%d baseline=%d",
			float.Ledger.TotalDrops, baseline.Ledger.TotalDrops)
	}
}

// TestTimelineSeriesTracksActionVisits pins the FLOAT controller's
// timeline contribution: one rl_action_visits series per action, visit
// counts summed across the Q-table, action order stable.
func TestTimelineSeriesTracksActionVisits(t *testing.T) {
	f := testFloat(9)
	series := f.TimelineSeries()
	if len(series) != len(opt.Actions()) {
		t.Fatalf("series = %d, want one per action (%d)", len(series), len(opt.Actions()))
	}
	for i, sv := range series {
		want := `rl_action_visits{action="` + opt.Actions()[i].String() + `"}`
		if sv.Name != want {
			t.Errorf("series[%d].Name = %q, want %q", i, sv.Name, want)
		}
		if sv.Value != 0 {
			t.Errorf("fresh agent visits[%d] = %v, want 0", i, sv.Value)
		}
	}

	c := testClient(t)
	res := c.ResourcesAt(0)
	tech := f.Decide(0, c, res, 0)
	f.Feedback(0, c, tech, device.Outcome{Completed: true, Resources: res}, 0.1)
	total := 0.0
	for _, sv := range f.TimelineSeries() {
		total += sv.Value
	}
	if total != 1 {
		t.Fatalf("total visits after one feedback = %v, want 1", total)
	}
}

// TestTimelineSeriesPerClientMode sums visits across per-client agents in
// deterministic client-ID order.
func TestTimelineSeriesPerClientMode(t *testing.T) {
	f := New(Config{
		Agent:           rl.Config{Seed: 4, TotalRounds: 50},
		BatchSize:       20,
		Epochs:          5,
		ClientsPerRound: 30,
		PerClient:       true,
	})
	c := testClient(t)
	res := c.ResourcesAt(0)
	tech := f.Decide(0, c, res, 0)
	f.Feedback(0, c, tech, device.Outcome{Completed: true, Resources: res}, 0.1)
	series := f.TimelineSeries()
	if len(series) != len(opt.Actions()) {
		t.Fatalf("series = %d, want %d", len(series), len(opt.Actions()))
	}
	total := 0.0
	for _, sv := range series {
		total += sv.Value
	}
	if total != 1 {
		t.Fatalf("per-client total visits = %v, want 1", total)
	}
}
