// Package rl implements FLOAT's multi-objective Q-learning agent with
// human feedback (RLHF). The agent maps a discretized client/global state
// (Table 1 of the paper: global training parameters, runtime resource
// variance, and the deadline-difference human-feedback signal) to one of 8
// acceleration actions, learning two objectives — participation success and
// accuracy improvement — as moving averages combined by a weighted reward
// (Equation 2). It incorporates every mechanism the paper's RQ answers
// describe: the reduced-discount Bellman update (RQ1), sub-millisecond /
// sub-megabyte overhead (RQ2), Q-table save/load for fine-tuning on new
// workloads (RQ3), the deadline-difference HF state (RQ4), statistical
// 5-bin dimensionality reduction (RQ5), moving-average rewards with a
// dynamic learning rate and balanced exploration (RQ6), and a feedback
// cache that synthesizes rewards for dropped-out clients (RQ7).
package rl

import "fmt"

// DefaultBins is the paper's state resolution: 5 discrete bins per
// continuous metric was found to balance information richness against
// exploration time (RQ5).
const DefaultBins = 5

// State is the discretized RLHF agent state.
type State struct {
	// Global training parameters (G_B, G_E, G_K): 0=small 1=medium 2=large.
	GB, GE, GK int
	// Runtime variance (S_CPU, S_MEM, S_Network): bin indices in [0, Bins).
	CPU, Mem, Net int
	// HF is the deadline-difference human-feedback bin in [0, Bins);
	// 0 means the client met its last deadline.
	HF int
}

// String renders the state compactly for logs and Q-table dumps.
func (s State) String() string {
	return fmt.Sprintf("g(%d%d%d)/r(%d%d%d)/hf%d", s.GB, s.GE, s.GK, s.CPU, s.Mem, s.Net, s.HF)
}

// Key packs the state into a single non-negative int. bins is the
// resolution used for the resource and HF dimensions.
func (s State) Key(bins int) int {
	if bins <= 0 {
		bins = DefaultBins
	}
	k := s.GB
	k = k*3 + s.GE
	k = k*3 + s.GK
	k = k*bins + s.CPU
	k = k*bins + s.Mem
	k = k*bins + s.Net
	k = k*bins + s.HF
	return k
}

// DiscretizeGlobals maps the raw global training parameters to Table 1's
// three-way bins: batch size (<8, 8-31, >=32), local epochs (<5, 5-9,
// >=10), and participants per round (<10, 10-49, >=50).
func DiscretizeGlobals(batchSize, epochs, participants int) (gb, ge, gk int) {
	switch {
	case batchSize < 8:
		gb = 0
	case batchSize < 32:
		gb = 1
	default:
		gb = 2
	}
	switch {
	case epochs < 5:
		ge = 0
	case epochs < 10:
		ge = 1
	default:
		ge = 2
	}
	switch {
	case participants < 10:
		gk = 0
	case participants < 50:
		gk = 1
	default:
		gk = 2
	}
	return gb, ge, gk
}

// cpuMemCap mirrors Table 1: CPU and memory availability tops out at the
// "Very High (61-80%)" bin because the OS and foreground apps always hold
// the rest.
const cpuMemCap = 0.8

// DiscretizeResources maps availability fractions to bin indices.
// CPU/memory fractions are binned over [0, 0.8]; network over [0, 1].
func DiscretizeResources(cpuFrac, memFrac, netFrac float64, bins int) (cpu, mem, net int) {
	if bins <= 0 {
		bins = DefaultBins
	}
	return binOf(cpuFrac, cpuMemCap, bins), binOf(memFrac, cpuMemCap, bins), binOf(netFrac, 1, bins)
}

// DiscretizeDeadlineDiff maps the human-feedback deadline difference
// (fraction of the deadline the client overran; 0 = met it) to Table 1's
// bins: None (0), then 10%-wide bins with everything >= 30% in the top bin
// when bins == 5; other resolutions scale the bin width accordingly.
func DiscretizeDeadlineDiff(diff float64, bins int) int {
	if bins <= 0 {
		bins = DefaultBins
	}
	if diff <= 0 {
		return 0
	}
	// bins-1 overflow bins of width 0.1 each (scaled to keep the top bin
	// at >= 0.1*(bins-2) for other resolutions).
	idx := 1 + int(diff/0.1)
	if idx > bins-1 {
		idx = bins - 1
	}
	return idx
}

func binOf(frac, cap float64, bins int) int {
	if frac <= 0 {
		return 0
	}
	if frac >= cap {
		return bins - 1
	}
	idx := int(frac / (cap / float64(bins)))
	if idx > bins-1 {
		idx = bins - 1
	}
	return idx
}

// UnKey inverts State.Key for the given bin resolution.
func UnKey(key, bins int) State {
	if bins <= 0 {
		bins = DefaultBins
	}
	var s State
	s.HF = key % bins
	key /= bins
	s.Net = key % bins
	key /= bins
	s.Mem = key % bins
	key /= bins
	s.CPU = key % bins
	key /= bins
	s.GK = key % 3
	key /= 3
	s.GE = key % 3
	key /= 3
	s.GB = key
	return s
}
