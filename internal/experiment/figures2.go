package experiment

import (
	"bytes"
	"fmt"

	"floatfl/internal/core"
	"floatfl/internal/fl"
	"floatfl/internal/opt"
	"floatfl/internal/rl"
	"floatfl/internal/trace"
)

// Fig8 reproduces the RLHF overhead study: Q-table memory and per-update
// training time as the number of materialized states grows. The paper's
// operating point (125 resource-state combinations × 8 actions) is marked.
func Fig8() ([]Table, error) {
	tab := Table{
		Title:  "Fig 8: RLHF agent overhead vs number of states (125 = FLOAT operating point)",
		Header: []string{"states", "memory-KB", "update-us", "select-us"},
	}
	for _, nStates := range []int{1, 8, 27, 64, 125, 512, 1000, 4096} {
		a := rl.NewAgent(rl.Config{Seed: 7, Bins: 64}) // wide bins: room for many states
		states := make([]rl.State, nStates)
		for i := range states {
			states[i] = rl.State{CPU: i % 64, Mem: (i / 64) % 64, Net: (i / 4096) % 64}
		}
		// Materialize every state and settle the table.
		for i, s := range states {
			act := a.SelectAction(s)
			if err := a.Update(i%300, s, act, i%2 == 0, 0.1); err != nil {
				return nil, err
			}
		}
		const iters = 2000
		start := timeNow()
		for i := 0; i < iters; i++ {
			s := states[i%nStates]
			if err := a.Update(i%300, s, opt.TechQuant8, true, 0.1); err != nil {
				return nil, err
			}
		}
		updateUS := float64(timeNow().Sub(start).Microseconds()) / iters
		start = timeNow()
		for i := 0; i < iters; i++ {
			a.SelectAction(states[i%nStates])
		}
		selectUS := float64(timeNow().Sub(start).Microseconds()) / iters
		tab.Rows = append(tab.Rows, []string{
			d(nStates), f2(float64(a.MemoryBytes()) / 1024), f3(updateUS), f3(selectUS),
		})
	}
	return []Table{tab}, nil
}

// Fig9 reproduces the RLHF reusability study: pre-train FLOAT's agent on
// FEMNIST-like data with ResNet-18, then deploy it on CIFAR10-like data
// with ResNet-50 and compare fine-tuning convergence against a cold start.
// The reported series is the mean combined reward per reward window.
func Fig9(sc Scale) ([]Table, error) {
	makeFloat := func(seed int64) *core.Float {
		return core.New(core.Config{
			Agent:           rl.Config{Seed: seed, TotalRounds: sc.Rounds},
			BatchSize:       sc.BatchSz,
			Epochs:          sc.Epochs,
			ClientsPerRound: sc.PerRound,
		})
	}

	// Phase 1: pre-train on FEMNIST + ResNet-18.
	pre := makeFloat(sc.Seed + 100)
	if _, err := runWith(sc, RunSpec{
		Dataset: "femnist", Algo: "fedavg", Arch: "resnet18",
		Scenario: trace.ScenarioDynamic, DeadlinePercentile: 45,
	}, pre); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := pre.SaveAgent(&buf); err != nil {
		return nil, err
	}

	// Phase 2: CIFAR10 + ResNet-50, warm vs cold.
	warm := makeFloat(sc.Seed + 101)
	if err := warm.LoadAgent(bytes.NewReader(buf.Bytes())); err != nil {
		return nil, err
	}
	cold := makeFloat(sc.Seed + 101)
	spec := RunSpec{
		Dataset: "cifar10", Algo: "fedavg", Arch: "resnet50",
		Scenario: trace.ScenarioDynamic, DeadlinePercentile: 45, SeedOffset: 7,
	}
	if _, err := runWith(sc, spec, warm); err != nil {
		return nil, err
	}
	if _, err := runWith(sc, spec, cold); err != nil {
		return nil, err
	}

	tab := Table{
		Title:  "Fig 9: RLHF agent reusability — mean reward per window, pre-trained vs cold start on CIFAR10/ResNet-50",
		Header: []string{"window", "pretrained-reward", "coldstart-reward"},
	}
	wh, ch := warm.Agent().RewardHistory(), cold.Agent().RewardHistory()
	windows := 6
	n := len(wh)
	if len(ch) < n {
		n = len(ch)
	}
	if n == 0 {
		return nil, fmt.Errorf("experiment: no reward history recorded")
	}
	step := max(1, n/windows)
	for start := 0; start < n; start += step {
		end := start + step
		if end > n {
			end = n
		}
		mean := func(h []float64) float64 {
			var s float64
			for _, r := range h[start:end] {
				s += r
			}
			return s / float64(end-start)
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d-%d", start, end), f3(mean(wh)), f3(mean(ch)),
		})
	}
	return []Table{tab}, nil
}

// Fig10 reproduces the fine-tuned Q-table inspection: for three resource
// scenarios (IID data, dynamic non-IID, unstable 4G-only network) it dumps
// the agent's per-action participation-success and accuracy-improvement
// estimates, visit-weighted across states.
func Fig10(sc Scale) ([]Table, error) {
	scenarios := []struct {
		name string
		spec RunSpec
	}{
		{"iid", RunSpec{Dataset: "femnist", Algo: "fedavg", Float: true,
			Alpha: 100, Scenario: trace.ScenarioDynamic, DeadlinePercentile: 45}},
		{"dynamic-noniid", RunSpec{Dataset: "femnist", Algo: "fedavg", Float: true,
			Alpha: 0.1, Scenario: trace.ScenarioDynamic, DeadlinePercentile: 45}},
		{"unstable-network", RunSpec{Dataset: "femnist", Algo: "fedavg", Float: true,
			Alpha: 0.1, Scenario: trace.ScenarioDynamic, FourGOnly: true, DeadlinePercentile: 45}},
	}
	var tables []Table
	for _, sn := range scenarios {
		_, ctrl, err := RunWithController(sc, sn.spec)
		if err != nil {
			return nil, err
		}
		f, ok := ctrl.(*core.Float)
		if !ok {
			return nil, fmt.Errorf("experiment: Fig10 controller is %T, want *core.Float", ctrl)
		}
		tab := Table{
			Title:  fmt.Sprintf("Fig 10 (%s): fine-tuned Q-table per action", sn.name),
			Header: []string{"action", "participation-success", "accuracy-improvement", "visits"},
		}
		for _, st := range f.Agent().ActionSummary() {
			tab.Rows = append(tab.Rows, []string{
				st.Technique.String(), f3(st.Part), f3(st.Acc), d(st.Visits),
			})
		}
		tables = append(tables, tab)
	}
	return tables, nil
}

// Fig11 reproduces the human-feedback ablation: FLOAT-RLHF (full design)
// versus FLOAT-RL (deadline-difference state disabled) under dynamic
// interference, with the same three panels as Fig 6.
func Fig11(sc Scale) ([]Table, error) {
	arms := []struct {
		name string
		cfg  rl.Config
	}{
		{"float-rlhf", rl.Config{}},
		{"float-rl", rl.Config{DisableHF: true}},
	}
	acc := Table{
		Title:  "Fig 11 (left): accuracy, successful and dropped clients",
		Header: []string{"controller", "top10%", "avg%", "bottom10%", "successful", "dropped"},
	}
	ineff := Table{
		Title:  "Fig 11 (mid): resource inefficiency from dropped clients",
		Header: []string{"controller", "compute-h", "comm-h", "memory-TB"},
	}
	byName := map[string]*fl.Result{}
	for _, arm := range arms {
		cfg := arm.cfg
		res, err := Run(sc, RunSpec{
			Dataset: "femnist", Algo: "fedavg", Float: true, FloatCfg: &cfg,
			Alpha: 0.1, Scenario: trace.ScenarioDynamic, DeadlinePercentile: 45,
		})
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
	breakdown := techBreakdownTable("Fig 11 (right): per-technique success and failure counts", byName)
	return []Table{acc, ineff, breakdown}, nil
}

// endToEnd runs the Fig 12/13 grid for one dataset: every baseline with
// and without FLOAT (REFL is never paired with FLOAT, matching the paper's
// Section 6.1 rationale).
func endToEnd(sc Scale, dataset string) ([]Table, error) {
	type arm struct {
		label string
		spec  RunSpec
	}
	arms := []arm{
		{"fedavg", RunSpec{Dataset: dataset, Algo: "fedavg"}},
		{"float(fedavg)", RunSpec{Dataset: dataset, Algo: "fedavg", Float: true}},
		{"oort", RunSpec{Dataset: dataset, Algo: "oort"}},
		{"float(oort)", RunSpec{Dataset: dataset, Algo: "oort", Float: true}},
		{"refl", RunSpec{Dataset: dataset, Algo: "refl"}},
		{"fedbuff", RunSpec{Dataset: dataset, Algo: "fedbuff"}},
		{"float(fedbuff)", RunSpec{Dataset: dataset, Algo: "fedbuff", Float: true}},
	}
	acc := Table{
		Title:  fmt.Sprintf("%s (top): accuracy, successful and dropped clients", dataset),
		Header: []string{"arm", "top10%", "avg%", "bottom10%", "successful", "dropped"},
	}
	ineff := Table{
		Title:  fmt.Sprintf("%s (bottom): compute, communication, and memory inefficiency", dataset),
		Header: []string{"arm", "compute-h", "comm-h", "memory-TB", "wall-clock-h"},
	}
	for _, a := range arms {
		a.spec.Alpha = 0.1
		a.spec.Scenario = trace.ScenarioDynamic
		a.spec.DeadlinePercentile = 50
		res, err := Run(sc, a.spec)
		if err != nil {
			return nil, err
		}
		l := res.Ledger
		s := res.FinalAccStats
		acc.Rows = append(acc.Rows, []string{
			a.label, f1(s.Top10 * 100), f1(s.Average * 100), f1(s.Bottom10 * 100),
			d(l.TotalRounds - l.TotalDrops), d(l.TotalDrops),
		})
		w := l.Wasted
		ineff.Rows = append(ineff.Rows, []string{
			a.label, f2(w.ComputeHours), f2(w.CommHours), f3(w.MemoryTB),
			f2(res.WallClockSeconds / 3600),
		})
	}
	return []Table{acc, ineff}, nil
}

// Fig12 reproduces the end-to-end evaluation across FEMNIST, CIFAR10, and
// Speech with ResNet-34 (Section 6.2).
func Fig12(sc Scale) ([]Table, error) {
	var tables []Table
	for _, ds := range []string{"femnist", "cifar10", "speech"} {
		ts, err := endToEnd(sc, ds)
		if err != nil {
			return nil, err
		}
		tables = append(tables, ts...)
	}
	return tables, nil
}

// Fig13 reproduces the complex-dataset evaluation: OpenImage with
// ShuffleNet.
func Fig13(sc Scale) ([]Table, error) {
	return endToEnd(sc, "openimage")
}
