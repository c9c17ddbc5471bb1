package rl

import (
	"fmt"
	"math"
	"sort"

	"floatfl/internal/obs"
	"floatfl/internal/opt"
	"floatfl/internal/rngstate"
)

// Config tunes the RLHF agent. Zero values get paper defaults; the boolean
// knobs exist for the ablation studies (Fig 11 and the DESIGN.md ablation
// benches) and default to the full FLOAT design via the *Disable* naming.
type Config struct {
	// Bins is the per-metric state resolution (default 5, RQ5).
	Bins int
	// Epsilon is the exploration probability (default 0.15).
	Epsilon float64
	// TotalRounds calibrates the dynamic learning rate (default 300).
	TotalRounds int

	// DisableHF ignores the deadline-difference human feedback (the
	// FLOAT-RL ablation arm).
	DisableHF bool
	// DisableFeedbackCache skips reward synthesis for dropped clients (RQ7).
	DisableFeedbackCache bool
	// DisableBalancedExploration falls back to uniform random exploration.
	DisableBalancedExploration bool
	// AdditiveRewards accumulates raw rewards instead of moving averages —
	// the broken variant RQ6 describes, kept for the ablation bench.
	AdditiveRewards bool
	// FixedLR pins the learning rate to its round-0 value, 0.1, for the
	// ablation bench.
	FixedLR bool

	// Actions overrides the agent's action space (default: the paper's 8
	// actions, opt.Actions()). Adding a technique grows the search space
	// linearly in the state count (RQ5); snapshots record the action list
	// and refuse to load into a mismatched agent.
	Actions []opt.Technique

	Seed int64
}

// The reward weights of Equation 2 (participation success, accuracy
// improvement), and the learning rate at round 0, from which RQ6's dynamic
// rate grows linearly with training progress up to 1.
//
// Algorithm 1's update also adds a discounted future value, max Q of the
// client's next state. The paper drives that discount toward zero, because
// the next state is resource-random, and the agent takes it as zero: an
// update reads only the state the action was taken in.
const (
	wp, wa = 0.6, 0.4
	baseLR = 0.1
)

func (c Config) withDefaults() Config {
	if c.Bins <= 0 {
		c.Bins = DefaultBins
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.15
	}
	if c.TotalRounds <= 0 {
		c.TotalRounds = 300
	}
	return c
}

// cell is one (state, action) entry of the multi-objective Q-table: the
// two objective estimates plus the visit counter driving balanced
// exploration.
type cell struct {
	QPart  float64 // participation-success objective
	QAcc   float64 // accuracy-improvement objective
	Visits int
}

// Agent is FLOAT's Q-learning RLHF agent.
type Agent struct {
	cfg     Config
	actions []opt.Technique
	rng     *rngstate.Source

	// table maps State.Key -> per-action cells. Only visited states are
	// materialized, keeping the memory overhead tiny (Fig 8).
	table map[int][]cell

	// accCache memoizes the latest observed accuracy improvement per
	// state, used to synthesize rewards for dropped clients (RQ7).
	accCache map[int]float64

	// rewardHistory records each update's combined reward for the
	// convergence plots (Fig 9).
	rewardHistory []float64

	updates int

	// Telemetry handles (nil until Instrument): selection and reward-update
	// counters feeding the Fig 10 action-frequency analysis live.
	obsSelects        *obs.Counter
	obsExplores       *obs.Counter
	obsUpdates        *obs.Counter
	obsParticipations *obs.Counter
	obsActions        []*obs.Counter // indexed like a.actions
}

// Instrument registers the agent's selection/update counters on reg.
// Registration is idempotent per metric name, so per-client agent fleets
// sharing one registry accumulate into the same counters. A nil reg
// leaves the handles nil, which every recording path tolerates.
func (a *Agent) Instrument(reg *obs.Registry) {
	a.obsSelects = reg.Counter("rl_action_selected_total")
	a.obsExplores = reg.Counter("rl_explorations_total")
	a.obsUpdates = reg.Counter("rl_updates_total")
	a.obsParticipations = reg.Counter("rl_participations_total")
	a.obsActions = make([]*obs.Counter, len(a.actions))
	for i, t := range a.actions {
		a.obsActions[i] = reg.Counter(`rl_action_selected_total{action="` + t.String() + `"}`)
	}
}

// recordSelect is the single exit point of SelectAction: it counts the
// pick (guarding the per-action slice, which is nil when uninstrumented)
// and returns the chosen technique.
func (a *Agent) recordSelect(idx int, explored bool) opt.Technique {
	a.obsSelects.Inc()
	if explored {
		a.obsExplores.Inc()
	}
	if idx >= 0 && idx < len(a.obsActions) {
		a.obsActions[idx].Inc()
	}
	return a.actions[idx]
}

// NewAgent constructs an agent over FLOAT's 8-action space, or over
// cfg.Actions when overridden.
func NewAgent(cfg Config) *Agent {
	cfg = cfg.withDefaults()
	actions := cfg.Actions
	if len(actions) == 0 {
		actions = opt.Actions()
	}
	return &Agent{
		cfg:      cfg,
		actions:  append([]opt.Technique(nil), actions...),
		rng:      rngstate.New(cfg.Seed),
		table:    make(map[int][]cell),
		accCache: make(map[int]float64),
	}
}

// Actions exposes the agent's action space.
func (a *Agent) Actions() []opt.Technique { return a.actions }

// Config returns the agent's effective configuration.
func (a *Agent) Config() Config { return a.cfg }

// normalize strips the HF dimension when human feedback is disabled, so
// FLOAT-RL genuinely cannot condition on it.
func (a *Agent) normalize(s State) State {
	if a.cfg.DisableHF {
		s.HF = 0
	}
	return s
}

func (a *Agent) cells(s State) []cell {
	k := s.Key(a.cfg.Bins)
	cs, ok := a.table[k]
	if !ok {
		cs = make([]cell, len(a.actions))
		// Optimistic initialization: assume untried actions succeed. Under
		// the moving-average update this washes out after a few visits but
		// makes greedy selection try every action once per state, which
		// matters a lot for sample efficiency at the paper's 125-state
		// scale.
		for i := range cs {
			cs[i].QPart = 1
		}
		a.table[k] = cs
	}
	return cs
}

// SelectAction picks a technique for the state: with probability epsilon it
// explores (preferring the least-visited action unless balanced exploration
// is disabled), otherwise it exploits the weighted multi-objective Q-value.
func (a *Agent) SelectAction(s State) opt.Technique {
	s = a.normalize(s)
	cs := a.cells(s)

	// Count-based epsilon decay: a state whose least-tried action already
	// has history needs less exploration. New states explore at the full
	// rate; well-known states mostly exploit.
	minV := cs[0].Visits
	for _, c := range cs[1:] {
		if c.Visits < minV {
			minV = c.Visits
		}
	}
	eps := a.cfg.Epsilon
	if minV > 0 {
		eps /= math.Sqrt(float64(minV + 1))
	}
	if a.rng.Float64() < eps {
		if a.cfg.DisableBalancedExploration {
			return a.recordSelect(a.rng.Intn(len(a.actions)), true)
		}
		// Balanced exploration: among least-visited actions, pick randomly.
		var least []int
		for i, c := range cs {
			if c.Visits == minV {
				least = append(least, i)
			}
		}
		return a.recordSelect(least[a.rng.Intn(len(least))], true)
	}

	best, bestScore := 0, a.score(cs[0])
	for i := 1; i < len(cs); i++ {
		if sc := a.score(cs[i]); sc > bestScore {
			best, bestScore = i, sc
		}
	}
	return a.recordSelect(best, false)
}

// score combines the two objectives with the reward weights.
func (a *Agent) score(c cell) float64 {
	return wp*c.QPart + wa*c.QAcc
}

// QValues returns the combined Q-value per action for a state (zeros for
// unvisited states); used by Q-table dumps (Fig 10) and tests.
func (a *Agent) QValues(s State) []float64 {
	s = a.normalize(s)
	k := s.Key(a.cfg.Bins)
	out := make([]float64, len(a.actions))
	cs, ok := a.table[k]
	if !ok {
		return out
	}
	for i, c := range cs {
		out[i] = a.score(c)
	}
	return out
}

// Objectives returns the per-action (participation, accuracy) estimates
// for a state — the two panels of the paper's Fig 10 Q-table plots.
func (a *Agent) Objectives(s State) (part, acc []float64) {
	s = a.normalize(s)
	k := s.Key(a.cfg.Bins)
	part = make([]float64, len(a.actions))
	acc = make([]float64, len(a.actions))
	if cs, ok := a.table[k]; ok {
		for i, c := range cs {
			part[i] = c.QPart
			acc[i] = c.QAcc
		}
	}
	return part, acc
}

// learningRate implements RQ6's dynamic rate: low early (accuracy moves a
// lot per round, so individual rewards are noisy), rising linearly with
// training progress, capped at 1.
func (a *Agent) learningRate(round int) float64 {
	if a.cfg.FixedLR {
		return baseLR
	}
	progress := float64(round) / float64(a.cfg.TotalRounds)
	lr := baseLR + (1-baseLR)*progress
	if lr > 1 {
		lr = 1
	}
	if lr < baseLR {
		lr = baseLR
	}
	return lr
}

// Update feeds back one executed action. participated reports whether the
// client completed the round; accImprove is its accuracy improvement (any
// scale; clipped to [-1, 1]). When the client dropped out, accImprove is
// unknown — pass 0 and the feedback cache supplies the estimate (RQ7).
func (a *Agent) Update(round int, s State, tech opt.Technique, participated bool, accImprove float64) error {
	s = a.normalize(s)
	idx := a.actionIndex(tech)
	if idx < 0 {
		return fmt.Errorf("rl: technique %v is not in the action space", tech)
	}
	cs := a.cells(s)
	key := s.Key(a.cfg.Bins)

	p := 0.0
	if participated {
		p = 1.0
		a.accCache[key] = 0.5*accImprove + 0.5*a.accCache[key]
	} else if !a.cfg.DisableFeedbackCache {
		// Synthesize the missing accuracy signal from similar clients'
		// cached improvements (same state bin).
		accImprove = a.accCache[key]
	} else {
		accImprove = 0
	}
	if accImprove > 1 {
		accImprove = 1
	}
	if accImprove < -1 {
		accImprove = -1
	}

	c := &cs[idx]
	c.Visits++
	lr := a.learningRate(round)
	// Sample-average floor: the first visits to a cell average exactly
	// (lr = 1/n), washing out the optimistic prior fast; once the cell has
	// history, the dynamic rate takes over and keeps the estimate
	// recency-weighted so the agent tracks resource drift.
	if !a.cfg.FixedLR {
		if inv := 1 / float64(c.Visits); inv > lr {
			lr = inv
		}
	}

	if a.cfg.AdditiveRewards {
		// The broken pre-fix variant: raw additive accumulation inflates
		// whichever action exploration happened to pick most.
		c.QPart += lr * p
		c.QAcc += lr * accImprove
	} else {
		// Moving-average update (RQ6): Q <- Q + lr (R - Q).
		c.QPart += lr * (p - c.QPart)
		c.QAcc += lr * (accImprove - c.QAcc)
	}

	a.updates++
	a.obsUpdates.Inc()
	if participated {
		a.obsParticipations.Inc()
	}
	a.rewardHistory = append(a.rewardHistory, wp*p+wa*accImprove)
	return nil
}

func (a *Agent) actionIndex(t opt.Technique) int {
	for i, at := range a.actions {
		if at == t {
			return i
		}
	}
	return -1
}

// Updates returns the number of Update calls the agent has absorbed.
func (a *Agent) Updates() int { return a.updates }

// RewardHistory returns the combined reward of every update in order
// (Fig 9's convergence signal). The returned slice is owned by the agent.
func (a *Agent) RewardHistory() []float64 { return a.rewardHistory }

// MeanRecentReward averages the last window rewards (all if window <= 0 or
// larger than the history).
func (a *Agent) MeanRecentReward(window int) float64 {
	h := a.rewardHistory
	if len(h) == 0 {
		return 0
	}
	if window <= 0 || window > len(h) {
		window = len(h)
	}
	var s float64
	for _, r := range h[len(h)-window:] {
		s += r
	}
	return s / float64(window)
}

// ActionStats aggregates one action's learned objectives across all
// visited states (visit-weighted) — the per-action bars of Fig 10.
type ActionStats struct {
	Technique opt.Technique
	// Part and Acc are visit-weighted means of the participation-success
	// and accuracy-improvement objectives.
	Part, Acc float64
	Visits    int
}

// ActionSummary aggregates the Q-table per action over every visited
// state, weighting each state's estimate by its visit count.
func (a *Agent) ActionSummary() []ActionStats {
	out := make([]ActionStats, len(a.actions))
	for i, t := range a.actions {
		out[i].Technique = t
	}
	// Visit states in key order: the weighted sums are floating-point, so
	// map-order iteration would make the summary differ between runs.
	keys := make([]int, 0, len(a.table))
	for k := range a.table {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		for i, c := range a.table[k] {
			if c.Visits == 0 {
				continue
			}
			w := float64(c.Visits)
			out[i].Part += w * c.QPart
			out[i].Acc += w * c.QAcc
			out[i].Visits += c.Visits
		}
	}
	for i := range out {
		if out[i].Visits > 0 {
			out[i].Part /= float64(out[i].Visits)
			out[i].Acc /= float64(out[i].Visits)
		}
	}
	return out
}

// ActionVisits returns the total visit count per action (indexed like
// Actions) summed over every visited state — the agent's lifetime action
// distribution, the quantity a run timeline samples to show when the
// policy shifted. Integer sums are exact and commutative, so plain map
// iteration cannot make the result order-dependent. The counts are pure
// projections of the Q-table; no extra mutable state backs them.
func (a *Agent) ActionVisits() []int {
	out := make([]int, len(a.actions))
	for _, cs := range a.table {
		for i, c := range cs {
			out[i] += c.Visits
		}
	}
	return out
}

// PolicyEntry is one row of a greedy-policy dump.
type PolicyEntry struct {
	State  State
	Action opt.Technique
	Q      float64
	Visits int
}

// PolicyDump returns the greedy action per visited state, sorted by state
// key for stable output (floatreport's -states view).
func (a *Agent) PolicyDump() []PolicyEntry {
	keys := make([]int, 0, len(a.table))
	for k := range a.table {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]PolicyEntry, 0, len(keys))
	for _, k := range keys {
		cs := a.table[k]
		best, bestScore, visits := 0, a.score(cs[0]), 0
		for i, c := range cs {
			visits += c.Visits
			if sc := a.score(c); sc > bestScore {
				best, bestScore = i, sc
			}
		}
		out = append(out, PolicyEntry{
			State:  UnKey(k, a.cfg.Bins),
			Action: a.actions[best],
			Q:      bestScore,
			Visits: visits,
		})
	}
	return out
}

// StatesVisited returns the number of materialized states.
func (a *Agent) StatesVisited() int { return len(a.table) }

// MemoryBytes estimates the Q-table's resident size: per state, one map
// slot plus len(actions) cells of (2 float64 + 1 int). This is the Fig 8
// overhead curve; at the paper's 125 resource states × 8 actions it is
// comfortably under 0.2 MB.
func (a *Agent) MemoryBytes() int64 {
	const cellBytes = 8 + 8 + 8 // QPart, QAcc, Visits
	const slotOverhead = 48     // map bucket + key + slice header, amortized
	perState := int64(slotOverhead + cellBytes*len(a.actions))
	return int64(len(a.table))*perState + int64(len(a.accCache))*16
}
