package experiment

import (
	"fmt"
	"sort"

	"floatfl/internal/data"
	"floatfl/internal/device"
	"floatfl/internal/fl"
	"floatfl/internal/metrics"
	"floatfl/internal/opt"
	"floatfl/internal/population"
	"floatfl/internal/trace"
)

// RunWithController executes one training run at the given scale, like
// Run, and also returns the controller so callers can inspect FLOAT's
// agent afterwards (Q-table dumps, transfer).
func RunWithController(sc Scale, spec RunSpec) (*fl.Result, fl.Controller, error) {
	ctrl := controllerFor(sc, spec, sc.Seed+spec.SeedOffset)
	res, err := runWith(sc, spec, ctrl)
	return res, ctrl, err
}

// Fig2 reproduces the motivation experiment (Fig 2a/2b): participation
// bias of selected (C) vs successfully completed (S) clients, and
// accumulated resource usage plus wall-clock time, across FedAvg, Oort,
// REFL (synchronous) and FedBuff (asynchronous). EMNIST-like data,
// Dirichlet alpha 0.05.
func Fig2(sc Scale) ([]Table, error) {
	algos := []string{"fedavg", "oort", "refl", "fedbuff"}
	bias := Table{
		Title:  "Fig 2a: participation bias (selected vs completed)",
		Header: []string{"algo", "selected(C)", "completed(S)", "never-selected%", "never-completed%", "gini", "jain"},
	}
	usage := Table{
		Title:  "Fig 2b: accumulated resource usage and wall-clock time",
		Header: []string{"algo", "compute-h(total)", "comm-h(total)", "wall-clock-h", "client-rounds"},
	}
	for _, algo := range algos {
		res, err := Run(sc, RunSpec{
			Dataset: "emnist", Algo: algo, Alpha: 0.05, Scenario: trace.ScenarioDynamic,
		})
		if err != nil {
			return nil, err
		}
		l := res.Ledger
		selected, completed := 0, 0
		for i := range l.Selected {
			selected += l.Selected[i]
			completed += l.Completed[i]
		}
		bias.Rows = append(bias.Rows, []string{
			algo, d(selected), d(completed),
			f1(l.NeverSelectedFraction() * 100), f1(l.NeverCompletedFraction() * 100),
			f3(l.SelectionGini()), f3(l.SelectionJainIndex()),
		})
		total := l.Useful
		total.Add(l.Wasted)
		usage.Rows = append(usage.Rows, []string{
			algo, f2(total.ComputeHours), f2(total.CommHours),
			f2(res.WallClockSeconds / 3600), d(l.TotalRounds),
		})
	}
	return []Table{bias, usage}, nil
}

// Fig3 reproduces the dropout-impact experiment: Top-10%, average, and
// Bottom-10% client accuracy under no dropouts (ND: unbounded deadline, no
// interference) versus dropouts (D: dynamic interference, tight deadline).
func Fig3(sc Scale) ([]Table, error) {
	algos := []string{"fedavg", "oort", "refl", "fedbuff"}
	tab := Table{
		Title:  "Fig 3: accuracy with no dropouts (ND) vs dropouts (D)",
		Header: []string{"algo", "arm", "top10%", "avg%", "bottom10%", "drops"},
	}
	for _, algo := range algos {
		for _, arm := range []string{"ND", "D"} {
			spec := RunSpec{Dataset: "emnist", Algo: algo, Alpha: 0.05}
			if arm == "ND" {
				spec.Scenario = trace.ScenarioNone
				spec.DeadlinePercentile = 99.9
			} else {
				spec.Scenario = trace.ScenarioDynamic
				spec.DeadlinePercentile = 50
			}
			res, err := Run(sc, spec)
			if err != nil {
				return nil, err
			}
			s := res.FinalAccStats
			tab.Rows = append(tab.Rows, []string{
				algo, arm, f1(s.Top10 * 100), f1(s.Average * 100), f1(s.Bottom10 * 100),
				d(res.Ledger.TotalDrops),
			})
		}
	}
	return []Table{tab}, nil
}

// Fig4 reproduces the resource-variation distributions: effective compute
// (GFLOPS × CPU availability) and effective bandwidth (Mbps × network
// availability) percentiles under the three interference scenarios.
func Fig4(sc Scale) ([]Table, error) {
	scenarios := []trace.Scenario{trace.ScenarioNone, trace.ScenarioStatic, trace.ScenarioDynamic}
	comp := Table{
		Title:  "Fig 4 (compute): effective GFLOPS available for FL",
		Header: []string{"scenario", "p10", "p50", "p90", "mean", "std"},
	}
	band := Table{
		Title:  "Fig 4 (network): effective bandwidth Mbps available for FL",
		Header: []string{"scenario", "p10", "p50", "p90", "mean", "std"},
	}
	for _, sn := range scenarios {
		pop, err := device.NewPopulation(device.PopulationConfig{
			Clients: sc.Clients, Scenario: sn, Seed: sc.Seed,
		})
		if err != nil {
			return nil, err
		}
		var gflops, mbps []float64
		steps := max(sc.Rounds, 10)
		for _, c := range pop {
			for t := 0; t < steps; t++ {
				r := c.ResourcesAt(t)
				gflops = append(gflops, c.Compute.GFLOPS*r.CPUFrac)
				mbps = append(mbps, r.BandwidthMbps*r.NetFrac)
			}
		}
		comp.Rows = append(comp.Rows, []string{
			sn.String(),
			f1(metrics.Percentile(gflops, 10)), f1(metrics.Percentile(gflops, 50)),
			f1(metrics.Percentile(gflops, 90)), f1(metrics.Mean(gflops)), f1(metrics.Std(gflops)),
		})
		band.Rows = append(band.Rows, []string{
			sn.String(),
			f1(metrics.Percentile(mbps, 10)), f1(metrics.Percentile(mbps, 50)),
			f1(metrics.Percentile(mbps, 90)), f1(metrics.Mean(mbps)), f1(metrics.Std(mbps)),
		})
	}
	return []Table{comp, band}, nil
}

// Fig5 reproduces the static-optimization study: accuracy, successful and
// dropped clients for one static technique per family (top row) and for
// the three pruning configurations (bottom row), across the three
// interference scenarios. FEMNIST-like data, FedAvg selection, tight
// deadline so optimizations matter.
func Fig5(sc Scale) ([]Table, error) {
	scenarios := []trace.Scenario{trace.ScenarioNone, trace.ScenarioStatic, trace.ScenarioDynamic}
	techSets := []struct {
		title string
		techs []string
	}{
		{"Fig 5 (top): static techniques", []string{"none", "quant8", "prune50", "partial50"}},
		{"Fig 5 (bottom): pruning configurations", []string{"prune25", "prune50", "prune75"}},
	}
	var tables []Table
	for _, set := range techSets {
		tab := Table{
			Title:  set.title,
			Header: []string{"scenario", "technique", "avg-acc%", "successful", "dropped"},
		}
		for _, sn := range scenarios {
			for _, tech := range set.techs {
				res, err := Run(sc, RunSpec{
					Dataset: "femnist", Algo: "fedavg", Static: tech,
					Scenario: sn, DeadlinePercentile: 45,
				})
				if err != nil {
					return nil, err
				}
				l := res.Ledger
				tab.Rows = append(tab.Rows, []string{
					sn.String(), tech, f1(res.FinalAccStats.Average * 100),
					d(l.TotalRounds - l.TotalDrops), d(l.TotalDrops),
				})
			}
		}
		tables = append(tables, tab)
	}
	return tables, nil
}

// techBreakdownTable renders per-technique success/failure counts — the
// right-hand panels of Fig 6 and Fig 11.
func techBreakdownTable(title string, results map[string]*fl.Result) Table {
	tab := Table{
		Title:  title,
		Header: []string{"controller", "technique", "success", "failure"},
	}
	// Rows come out in controller-name order; ranging the map directly
	// would shuffle the table between runs.
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res := results[name]
		for _, tech := range opt.All() {
			s := res.Ledger.TechSuccess[tech]
			f := res.Ledger.TechFailure[tech]
			if s == 0 && f == 0 {
				continue
			}
			tab.Rows = append(tab.Rows, []string{name, tech.String(), d(s), d(f)})
		}
	}
	return tab
}

// Fig6 reproduces the heuristic-vs-FLOAT comparison: FedAvg baseline, the
// Section 4.4 heuristic, and FLOAT, on FEMNIST-like data with Dirichlet
// alpha 0.01 under dynamic interference. Three panels: accuracy/clients,
// resource inefficiency, per-technique success/failure counts.
func Fig6(sc Scale) ([]Table, error) {
	arms := []struct {
		name string
		spec RunSpec
	}{
		{"fedavg", RunSpec{Dataset: "femnist", Algo: "fedavg"}},
		{"heuristic", RunSpec{Dataset: "femnist", Algo: "fedavg", Heur: true}},
		{"float", RunSpec{Dataset: "femnist", Algo: "fedavg", Float: true}},
	}
	acc := Table{
		Title:  "Fig 6 (left): accuracy, successful and dropped clients",
		Header: []string{"controller", "top10%", "avg%", "bottom10%", "successful", "dropped"},
	}
	ineff := Table{
		Title:  "Fig 6 (mid): resource inefficiency from dropped clients",
		Header: []string{"controller", "compute-h", "comm-h", "memory-TB"},
	}
	byName := map[string]*fl.Result{}
	for _, arm := range arms {
		arm.spec.Alpha = 0.01
		arm.spec.Scenario = trace.ScenarioDynamic
		arm.spec.DeadlinePercentile = 45
		res, err := Run(sc, arm.spec)
		if err != nil {
			return nil, err
		}
		byName[arm.name] = res
		l := res.Ledger
		s := res.FinalAccStats
		acc.Rows = append(acc.Rows, []string{
			arm.name, f1(s.Top10 * 100), f1(s.Average * 100), f1(s.Bottom10 * 100),
			d(l.TotalRounds - l.TotalDrops), d(l.TotalDrops),
		})
		w := l.Wasted
		ineff.Rows = append(ineff.Rows, []string{
			arm.name, f2(w.ComputeHours), f2(w.CommHours), f3(w.MemoryTB),
		})
	}
	breakdown := techBreakdownTable(
		"Fig 6 (right): per-technique success and failure counts",
		map[string]*fl.Result{"heuristic": byName["heuristic"], "float": byName["float"]})
	return []Table{acc, ineff, breakdown}, nil
}

// runWith executes one run with an explicit controller (shared by Run and
// the transfer/Q-table experiments).
func runWith(sc Scale, spec RunSpec, ctrl fl.Controller) (*fl.Result, error) {
	alpha := spec.Alpha
	if alpha <= 0 {
		alpha = 0.1
	}
	seed := sc.Seed + spec.SeedOffset
	arch := spec.Arch
	if arch == "" {
		arch = archFor(spec.Dataset)
	}
	cfg := fl.Config{
		Arch:               arch,
		Rounds:             sc.Rounds,
		ClientsPerRound:    sc.PerRound,
		Epochs:             sc.Epochs,
		BatchSize:          sc.BatchSz,
		LR:                 0.1,
		DeadlinePercentile: spec.DeadlinePercentile,
		EvalEvery:          max(1, sc.Rounds/10),
		Seed:               seed + 1,
		Concurrency:        sc.AsyncConcurrency,
		BufferK:            sc.AsyncBuffer,
		Parallelism:        sc.Parallelism,
		EvalClients:        sc.EvalClients,
		Logger:             spec.Logger,
		Metrics:            sc.Metrics,
		Tracer:             sc.Tracer,
		Timeline:           sc.Timeline,
		Checkpoint:         sc.Checkpoint,
	}
	if spec.Algo == "fedprox" {
		cfg.ProxMu = 0.01
	}
	var p *population.Population
	if sc.Lazy {
		var err error
		p, err = population.NewLazy(population.Config{
			Dataset:      spec.Dataset,
			Clients:      sc.Clients,
			Alpha:        alpha,
			Seed:         seed,
			Scenario:     spec.Scenario,
			FiveGShare:   spec.fiveGShare(),
			CacheClients: sc.CacheClients,
		})
		if err != nil {
			return nil, err
		}
		p.Instrument(sc.Metrics)
	} else {
		fedData, err := data.Generate(spec.Dataset, data.GenerateConfig{Clients: sc.Clients, Alpha: alpha, Seed: seed})
		if err != nil {
			return nil, err
		}
		pop, err := device.NewPopulation(device.PopulationConfig{
			Clients: sc.Clients, Scenario: spec.Scenario, Seed: seed,
			FiveGShare: spec.fiveGShare(),
		})
		if err != nil {
			return nil, err
		}
		p, err = population.WrapEager(fedData, pop)
		if err != nil {
			return nil, err
		}
	}
	if spec.Algo == "fedbuff" {
		return fl.RunAsyncPop(p, ctrl, cfg)
	}
	sel, err := selectorFor(spec.Algo, seed)
	if err != nil {
		return nil, err
	}
	return fl.RunSyncPop(p, sel, ctrl, cfg)
}

// fiveGShare lets network-stress specs force a 4G-only population.
func (s RunSpec) fiveGShare() float64 {
	if s.FourGOnly {
		return 0.0001
	}
	return 0
}

var errUnknownFigure = fmt.Errorf("experiment: unknown figure")
