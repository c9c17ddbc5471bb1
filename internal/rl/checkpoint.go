package rl

import (
	"fmt"

	"floatfl/internal/checkpoint"
)

// CheckpointState captures the agent for an engine checkpoint. Unlike the
// Save/Load snapshot (which deliberately carries only the transferable
// learned state), a checkpoint must reproduce the agent bit-for-bit
// mid-run: the reward history (Fig 9 convergence output), the update
// counter (drives the sample-average learning-rate floor), and the
// exploration RNG position all continue exactly where they left off. It
// also pins the schedule-shaping config (Seed, TotalRounds — the
// exploration decay is a function of round/TotalRounds): resuming under a
// different schedule would silently diverge from the uninterrupted run,
// so a mismatch is a typed CompatError instead. Save/Load deliberately
// does NOT carry these — transferring learned Q-values into a different
// schedule is the whole point of the pre-train-and-transfer workflow.
//
// Sections: seed, total rounds, the learned state (appendLearned), the
// reward history as raw floats, the update counter, the RNG draw position.
func (a *Agent) CheckpointState() ([]byte, error) {
	e := checkpoint.NewEnc(a.learnedSize() + 8*len(a.rewardHistory) + 48)
	e.Int64(a.cfg.Seed)
	e.Int(a.cfg.TotalRounds)
	a.appendLearned(e)
	e.Float64s(a.rewardHistory)
	e.Int(a.updates)
	e.Uvarint(a.rng.Pos())
	return e.Bytes(), nil
}

// RestoreCheckpoint restores a captured agent state. Everything is decoded
// and the schedule config and learned state are validated against the
// agent's configuration before anything is mutated.
func (a *Agent) RestoreCheckpoint(data []byte) error {
	d := checkpoint.NewDec(data)
	seed, totalRounds := d.Int64(), d.Int()
	l := decodeLearned(d)
	rewardHistory := d.Float64s()
	updates, draws := d.Int(), d.Draws()
	if err := d.Done(); err != nil {
		return fmt.Errorf("rl agent state: %w", err)
	}
	if seed != a.cfg.Seed {
		return &checkpoint.CompatError{
			Field: "agent_seed",
			Got:   fmt.Sprint(seed),
			Want:  fmt.Sprint(a.cfg.Seed),
		}
	}
	if totalRounds != a.cfg.TotalRounds {
		return &checkpoint.CompatError{
			Field: "agent_total_rounds",
			Got:   fmt.Sprint(totalRounds),
			Want:  fmt.Sprint(a.cfg.TotalRounds),
		}
	}
	if err := a.compatible(l); err != nil {
		return err
	}
	a.table, a.accCache = l.table, l.accCache
	a.rewardHistory = rewardHistory
	a.updates = updates
	a.rng.SeekTo(draws)
	return nil
}
