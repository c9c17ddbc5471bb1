package rl_test

import (
	"fmt"

	"floatfl/internal/opt"
	"floatfl/internal/rl"
)

// A complete agent loop: discretize the client's condition into a state,
// select an action, execute, and feed the outcome back. Here the
// environment rewards only strong communication savers, as on a client
// stuck behind a congested uplink.
func ExampleAgent() {
	agent := rl.NewAgent(rl.Config{Seed: 42, TotalRounds: 200})

	// A compute-rich, network-starved client (Table 1 discretization).
	cpu, mem, net := rl.DiscretizeResources(0.75, 0.7, 0.05, rl.DefaultBins)
	gb, ge, gk := rl.DiscretizeGlobals(20, 5, 30)
	state := rl.State{GB: gb, GE: ge, GK: gk, CPU: cpu, Mem: mem, Net: net}

	for round := 0; round < 300; round++ {
		action := agent.SelectAction(state)
		succeeded := action.Effects().CommFactor <= 0.5 // only comm savers fit
		accGain := 0.0
		if succeeded {
			accGain = 0.05
		}
		if err := agent.Update(round%200, state, action, succeeded, accGain); err != nil {
			panic(err)
		}
	}

	// The greedy policy has learned that this state needs a comm saver.
	best, bestIdx := -1.0, 0
	for i, q := range agent.QValues(state) {
		if q > best {
			best, bestIdx = q, i
		}
	}
	choice := agent.Actions()[bestIdx]
	fmt.Printf("learned action saves communication: %v\n", choice.Effects().CommFactor <= 0.5)
	fmt.Printf("states visited: %d\n", agent.StatesVisited())
	// Output:
	// learned action saves communication: true
	// states visited: 1
}

// The deadline-difference human-feedback signal maps onto Table 1's bins.
func ExampleDiscretizeDeadlineDiff() {
	for _, overrun := range []float64{0, 0.05, 0.15, 0.25, 0.80} {
		fmt.Printf("overran by %3.0f%% -> bin %d\n",
			overrun*100, rl.DiscretizeDeadlineDiff(overrun, rl.DefaultBins))
	}
	// Output:
	// overran by   0% -> bin 0
	// overran by   5% -> bin 1
	// overran by  15% -> bin 2
	// overran by  25% -> bin 3
	// overran by  80% -> bin 4
}

var _ = opt.TechQuant8 // keep the import for the example's context
