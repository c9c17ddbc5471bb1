package experiment

import (
	"fmt"

	"floatfl/internal/core"
	"floatfl/internal/opt"
	"floatfl/internal/rl"
	"floatfl/internal/trace"
)

// ablationArm names one agent-configuration variant.
type ablationArm struct {
	name      string
	cfg       rl.Config
	perClient bool
}

// runAblation executes each arm as FLOAT(FedAvg) on FEMNIST-like data
// under dynamic interference and reports the headline outcomes.
func runAblation(sc Scale, title string, arms []ablationArm) ([]Table, error) {
	tab := Table{
		Title:  title,
		Header: []string{"variant", "avg-acc%", "dropped", "mean-reward(last-25%)", "states"},
	}
	for _, arm := range arms {
		cfg := arm.cfg
		res, ctrl, err := RunWithController(sc, RunSpec{
			Dataset: "femnist", Algo: "fedavg", Float: true, FloatCfg: &cfg,
			FloatPerClient: arm.perClient,
			Alpha:          0.1, Scenario: trace.ScenarioDynamic, DeadlinePercentile: 45,
		})
		if err != nil {
			return nil, err
		}
		f, ok := ctrl.(*core.Float)
		if !ok {
			return nil, fmt.Errorf("experiment: ablation controller is %T, want *core.Float", ctrl)
		}
		sum := f.Summary()
		tab.Rows = append(tab.Rows, []string{
			arm.name, f1(res.FinalAccStats.Average * 100), d(res.Ledger.TotalDrops),
			f3(sum.MeanRecentReward), d(sum.States),
		})
	}
	return []Table{tab}, nil
}

// AblationReward compares RQ6's moving-average reward against the raw
// additive accumulation it replaced.
func AblationReward(sc Scale) ([]Table, error) {
	return runAblation(sc, "Ablation: moving-average vs additive rewards", []ablationArm{
		{name: "moving-average", cfg: rl.Config{}},
		{name: "additive", cfg: rl.Config{AdditiveRewards: true}},
	})
}

// AblationExploration compares balanced (least-visited-first) exploration
// against plain uniform epsilon-greedy.
func AblationExploration(sc Scale) ([]Table, error) {
	return runAblation(sc, "Ablation: balanced vs uniform exploration", []ablationArm{
		{name: "balanced", cfg: rl.Config{}},
		{name: "uniform", cfg: rl.Config{DisableBalancedExploration: true}},
	})
}

// AblationLearningRate compares the dynamic (progress-scaled) learning
// rate against a fixed rate.
func AblationLearningRate(sc Scale) ([]Table, error) {
	return runAblation(sc, "Ablation: dynamic vs fixed learning rate", []ablationArm{
		{name: "dynamic", cfg: rl.Config{}},
		{name: "fixed-0.1", cfg: rl.Config{FixedLR: true}},
	})
}

// AblationFeedbackCache compares RQ7's dropout-feedback synthesis against
// discarding dropped clients' accuracy signal.
func AblationFeedbackCache(sc Scale) ([]Table, error) {
	return runAblation(sc, "Ablation: dropout feedback cache on vs off", []ablationArm{
		{name: "cache-on", cfg: rl.Config{}},
		{name: "cache-off", cfg: rl.Config{DisableFeedbackCache: true}},
	})
}

// AblationPerClient compares the collective aggregator-side Q-table
// against per-client private tables (RQ2's two deployment modes).
func AblationPerClient(sc Scale) ([]Table, error) {
	return runAblation(sc, "Ablation: collective vs per-client Q-tables", []ablationArm{
		{name: "collective", cfg: rl.Config{}},
		{name: "per-client", cfg: rl.Config{}, perClient: true},
	})
}

// AblationActionSpace compares the paper's 8-action space against the
// extended 9-action space that adds the lossless-compression technique —
// the "new acceleration technique" growth path of RQ5.
func AblationActionSpace(sc Scale) ([]Table, error) {
	extended := append(opt.Actions(), opt.TechCompress)
	return runAblation(sc, "Ablation: 8-action vs extended 9-action space", []ablationArm{
		{name: "8-actions", cfg: rl.Config{}},
		{name: "9-actions(+compress)", cfg: rl.Config{Actions: extended}},
	})
}

// AblationBins compares RQ5's 5-bin discretization against coarser and
// finer resolutions.
func AblationBins(sc Scale) ([]Table, error) {
	return runAblation(sc, "Ablation: state discretization resolution", []ablationArm{
		{name: "3-bins", cfg: rl.Config{Bins: 3}},
		{name: "5-bins", cfg: rl.Config{Bins: 5}},
		{name: "7-bins", cfg: rl.Config{Bins: 7}},
	})
}

// SweepFig6 runs the Fig 6 comparison (FedAvg vs heuristic vs FLOAT) over
// several seeds and reports mean ± std — quantifying how much of the
// single-seed figures is noise.
func SweepFig6(sc Scale) ([]Table, error) {
	const seeds = 3
	arms := []struct {
		name string
		spec RunSpec
	}{
		{"fedavg", RunSpec{Dataset: "femnist", Algo: "fedavg"}},
		{"heuristic", RunSpec{Dataset: "femnist", Algo: "fedavg", Heur: true}},
		{"float", RunSpec{Dataset: "femnist", Algo: "fedavg", Float: true}},
	}
	tab := Table{
		Title:  fmt.Sprintf("Seed sweep (n=%d): Fig 6 arms, mean ± std", seeds),
		Header: []string{"controller", "avg-acc", "dropped", "wasted-compute-h", "wasted-comm-h"},
	}
	for _, arm := range arms {
		spec := arm.spec
		spec.Alpha = 0.1
		spec.Scenario = trace.ScenarioDynamic
		spec.DeadlinePercentile = 45
		res, err := Sweep(sc, spec, seeds)
		if err != nil {
			return nil, err
		}
		tab.Rows = append(tab.Rows, []string{
			arm.name, res.AvgAccuracy.String(), res.Dropped.String(),
			res.WastedCompute.String(), res.WastedComm.String(),
		})
	}
	return []Table{tab}, nil
}

// Figures maps figure/ablation names to their runners; the floatbench CLI
// and the bench suite both dispatch through it.
var Figures = map[string]func(Scale) ([]Table, error){
	"2":                  Fig2,
	"3":                  Fig3,
	"4":                  Fig4,
	"5":                  Fig5,
	"6":                  Fig6,
	"8":                  func(Scale) ([]Table, error) { return Fig8() },
	"9":                  Fig9,
	"10":                 Fig10,
	"11":                 Fig11,
	"12":                 Fig12,
	"13":                 Fig13,
	"ablation-reward":    AblationReward,
	"ablation-explore":   AblationExploration,
	"ablation-lr":        AblationLearningRate,
	"ablation-cache":     AblationFeedbackCache,
	"ablation-bins":      AblationBins,
	"ablation-perclient": AblationPerClient,
	"ablation-actions":   AblationActionSpace,
	"sweep-6":            SweepFig6,
}

// FigureNames returns the dispatchable experiment names in display order.
func FigureNames() []string {
	return []string{"2", "3", "4", "5", "6", "8", "9", "10", "11", "12", "13",
		"ablation-reward", "ablation-explore", "ablation-lr", "ablation-cache",
		"ablation-bins", "ablation-perclient", "ablation-actions", "sweep-6"}
}

// ByName runs the named figure at the given scale.
func ByName(name string, sc Scale) ([]Table, error) {
	fn, ok := Figures[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (known: %v)", errUnknownFigure, name, FigureNames())
	}
	return fn(sc)
}
