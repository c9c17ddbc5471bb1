package vfl_test

import (
	"fmt"

	"floatfl/internal/core"
	"floatfl/internal/fl"
	"floatfl/internal/rl"
	"floatfl/internal/trace"
	"floatfl/internal/vfl"
)

// FLOAT in the non-horizontal settings of the paper's Section 7.
//
// Vertical FL: four parties hold disjoint feature slices of the same
// samples (a bank, a retailer, a telco and an insurer describing the same
// customers). Every party is on the critical path of every step, so one
// straggler stalls the federation and adaptive per-party acceleration
// matters even more than in horizontal FL. The example compares plain
// VFL with VFL where FLOAT picks each party's technique.
//
// Hybrid FL: three silos, each a vertical federation over the same
// feature schema but a different sample population, train locally and
// FedAvg their split models every global round. One FLOAT controller
// serves every party of every silo.
func Example() {
	const parties, rounds, seed = 4, 30, 23
	cfg := vfl.Config{
		EmbeddingDim: 8, Rounds: rounds, BatchSize: 16,
		LR: 0.3, StepsPerRound: 8, Seed: seed,
	}
	newFloat := func(seed int64, clients int) *core.Float {
		return core.New(core.Config{
			Agent:     rl.Config{Seed: seed, TotalRounds: rounds},
			BatchSize: 16, Epochs: 1, ClientsPerRound: clients,
		})
	}

	fmt.Printf("vertical FL: %d parties, %d rounds, dynamic interference\n", parties, rounds)
	for _, arm := range []struct {
		name string
		ctrl fl.Controller
	}{{"plain", fl.NoOpController{}}, {"float", newFloat(seed, parties)}} {
		ds, err := vfl.Split("femnist", parties, 500, 200, seed)
		if err != nil {
			panic(err)
		}
		ps, coord, err := vfl.NewFederation(ds, cfg, trace.ScenarioDynamic)
		if err != nil {
			panic(err)
		}
		res, err := vfl.Run(ds, ps, coord, arm.ctrl, cfg)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-6s final-acc %5.1f%%  party-drops %v (total %d)  wall-clock %5.2fh  wasted-compute %5.2fh\n",
			arm.name, res.FinalTestAcc*100, res.PartyDrops, res.TotalDrops,
			res.WallClockSeconds/3600, res.WastedComputeHours)
	}

	fmt.Printf("hybrid FL: 3 silos x %d parties, %d global rounds\n", parties, rounds)
	for _, arm := range []struct {
		name string
		ctrl fl.Controller
	}{{"plain", fl.NoOpController{}}, {"float", newFloat(seed+1, 3*parties)}} {
		h, err := vfl.NewHybrid("femnist", 3, parties, 400, 150, cfg, trace.ScenarioDynamic, seed)
		if err != nil {
			panic(err)
		}
		res, err := h.Run(arm.ctrl)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-6s final-acc %5.1f%%  silo-drops %v (total %d)  wall-clock %5.2fh\n",
			arm.name, res.FinalTestAcc*100, res.SiloDrops, res.TotalDrops, res.WallClockSeconds/3600)
	}
	// Output:
	// vertical FL: 4 parties, 30 rounds, dynamic interference
	// plain  final-acc  45.5%  party-drops [24 1 17 7] (total 49)  wall-clock  0.12h  wasted-compute  0.00h
	// float  final-acc  43.5%  party-drops [23 0 7 6] (total 36)  wall-clock  0.11h  wasted-compute  0.00h
	// hybrid FL: 3 silos x 4 parties, 30 global rounds
	// plain  final-acc  24.7%  silo-drops [29 44 30] (total 103)  wall-clock  0.44h
	// float  final-acc  27.3%  silo-drops [23 39 28] (total 90)  wall-clock  0.31h
}
