package vfl

import (
	"fmt"
	"math/rand"

	"floatfl/internal/device"
	"floatfl/internal/fl"
	"floatfl/internal/nn"
	"floatfl/internal/rngstate"
	"floatfl/internal/tensor"
	"floatfl/internal/trace"
)

// Hybrid FL (paper Section 7) combines horizontal and vertical FL: several
// silos each hold a vertical federation over the *same feature schema* but
// over *different sample populations* (e.g. regional consortia of the same
// bank/retailer/telco split). Every global round each silo runs one local
// VFL round — with per-party FLOAT decisions exactly as in plain VFL —
// and the global server then averages the silos' split models
// horizontally. The paper's claim that FLOAT integrates "without needing
// structural adjustments" is literal here: the same fl.Controller instance
// serves every party of every silo.

// Silo is one vertical federation inside a hybrid deployment.
type Silo struct {
	Data    *SplitDataset
	Parties []*Party
	Coord   *Coordinator
	// hfDiff carries deadline human feedback between this silo's rounds.
	hfDiff  []float64
	rng     *rand.Rand
	scratch *runScratch
}

// Hybrid is the full cross-silo deployment.
type Hybrid struct {
	Silos []*Silo
	cfg   Config
}

// HybridResult summarizes a hybrid run.
type HybridResult struct {
	Controller string
	// TestAccHistory is the averaged global split model's accuracy on the
	// pooled held-out samples, per global round.
	TestAccHistory []float64
	FinalTestAcc   float64
	TotalDrops     int
	// SiloDrops[s] is silo s's party-round dropout count.
	SiloDrops          []int
	WallClockSeconds   float64
	WastedComputeHours float64
}

// NewHybrid builds a hybrid deployment: silos × parties devices, all
// sharing one feature schema. Each silo's samples are drawn independently
// (different seed), making the silos statistically heterogeneous.
func NewHybrid(profileName string, silos, parties, samplesPerSilo, testPerSilo int,
	cfg Config, scenario trace.Scenario, seed int64) (*Hybrid, error) {

	if silos < 2 {
		return nil, fmt.Errorf("vfl: hybrid needs at least 2 silos, got %d", silos)
	}
	cfg = cfg.withDefaults()
	h := &Hybrid{cfg: cfg}
	for s := 0; s < silos; s++ {
		ds, err := Split(profileName, parties, samplesPerSilo, testPerSilo, seed+int64(s)*101)
		if err != nil {
			return nil, err
		}
		siloCfg := cfg
		siloCfg.Seed = seed + int64(s)*977
		ps, coord, err := NewFederation(ds, siloCfg, scenario)
		if err != nil {
			return nil, err
		}
		h.Silos = append(h.Silos, &Silo{
			Data:    ds,
			Parties: ps,
			Coord:   coord,
			hfDiff:  make([]float64, parties),
			rng:     rand.New(rngstate.New(siloCfg.Seed + 7)),
			scratch: newRunScratch(ds, ps, siloCfg),
		})
	}
	return h, nil
}

// Run executes hybrid training for cfg.Rounds global rounds.
func (h *Hybrid) Run(ctrl fl.Controller) (*HybridResult, error) {
	cfg := h.cfg
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("vfl: Rounds must be positive, got %d", cfg.Rounds)
	}
	// Deadline budgeted against the slowest party anywhere.
	deadline := cfg.DeadlineSec
	if deadline <= 0 {
		var worst float64
		for _, silo := range h.Silos {
			for _, p := range silo.Parties {
				if est := device.EstimateCleanResponseSeconds(p.Device, partyWork(p, cfg)); est > worst {
					worst = est
				}
			}
		}
		deadline = worst * 1.5
	}

	res := &HybridResult{
		Controller: ctrl.Name(),
		SiloDrops:  make([]int, len(h.Silos)),
	}
	for round := 0; round < cfg.Rounds; round++ {
		var roundWall float64
		for si, silo := range h.Silos {
			// Reuse the plain-VFL round with a silo-local result shim so
			// the dropout/waste accounting lands per silo.
			shim := &Result{PartyDrops: make([]int, len(silo.Parties))}
			wall, err := runRound(silo.Data, silo.Parties, silo.Coord, ctrl,
				cfg, round, deadline, silo.hfDiff, shim, silo.rng, silo.scratch)
			if err != nil {
				return nil, err
			}
			res.SiloDrops[si] += shim.TotalDrops
			res.TotalDrops += shim.TotalDrops
			res.WastedComputeHours += shim.WastedComputeHours
			// Silos train in parallel: the global round's wall clock is
			// the slowest silo.
			if wall > roundWall {
				roundWall = wall
			}
		}
		res.WallClockSeconds += roundWall

		// Horizontal phase: average the split models across silos and
		// redistribute — vanilla FedAvg over bottoms (per party index)
		// and tops.
		h.averageAcrossSilos()
		res.TestAccHistory = append(res.TestAccHistory, h.evaluatePooled())
	}
	res.FinalTestAcc = res.TestAccHistory[len(res.TestAccHistory)-1]
	return res, nil
}

// averageAcrossSilos FedAvg-merges every bottom model (per party index)
// and the coordinators' top models, then writes the averages back into
// every silo.
func (h *Hybrid) averageAcrossSilos() {
	nSilos := float64(len(h.Silos))
	parties := len(h.Silos[0].Parties)

	avgDense := func(pick func(*Silo) *nn.Dense) {
		first := pick(h.Silos[0])
		wSum := tensor.NewVector(len(first.W.Data))
		bSum := tensor.NewVector(len(first.B))
		for _, silo := range h.Silos {
			d := pick(silo)
			wSum.AddScaled(1/nSilos, d.W.Data)
			bSum.AddScaled(1/nSilos, d.B)
		}
		for _, silo := range h.Silos {
			d := pick(silo)
			copy(d.W.Data, wSum)
			copy(d.B, bSum)
		}
	}
	for pi := 0; pi < parties; pi++ {
		pi := pi
		avgDense(func(s *Silo) *nn.Dense { return s.Parties[pi].Bottom })
	}
	avgDense(func(s *Silo) *nn.Dense { return s.Coord.Top })
}

// evaluatePooled scores the (now synchronized) global split model on the
// union of silo test sets.
func (h *Hybrid) evaluatePooled() float64 {
	var correctWeighted, total float64
	for _, silo := range h.Silos {
		acc := Evaluate(silo.Data, silo.Parties, silo.Coord)
		n := float64(len(silo.Data.TestLabels))
		correctWeighted += acc * n
		total += n
	}
	if total == 0 {
		return 0
	}
	return correctWeighted / total
}
