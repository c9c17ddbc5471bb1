// Package core implements FLOAT itself: the controller that sits between
// any client-selection algorithm and the FL engine, asks its RLHF agent
// which acceleration technique each selected client should run this round,
// and feeds execution outcomes (participation success, accuracy
// improvement, and deadline-difference human feedback) back into the
// agent's multi-objective Q-table. The controller is deliberately
// non-intrusive: it implements fl.Controller and changes neither the
// selection algorithm nor the training procedure, which is how the paper
// pairs FLOAT with FedAvg, Oort, and FedBuff unchanged.
//
// The package also provides the heuristic controller of Section 4.4 (the
// rules-based straw man FLOAT is compared against in Fig 6).
package core

import (
	"fmt"
	"io"
	"sort"

	"floatfl/internal/device"
	"floatfl/internal/fl"
	"floatfl/internal/obs"
	"floatfl/internal/opt"
	"floatfl/internal/rl"
	"floatfl/internal/rngstate"
)

// Config tunes a FLOAT controller.
type Config struct {
	// Agent configures the embedded RLHF agent.
	Agent rl.Config
	// BatchSize, Epochs, and ClientsPerRound are the deployment's global
	// training parameters — the G_B, G_E, G_K dimensions of the agent
	// state (Table 1).
	BatchSize, Epochs, ClientsPerRound int
	// PerClient trains one Q-table per client instead of a collective
	// table at the aggregator. This is the paper's privacy-conscious mode
	// (RQ2): no client shares system-usage data, at the cost of far slower
	// per-client convergence. The default collective table is what the
	// paper deploys for scale.
	PerClient bool
	// Metrics instruments the controller's agents (collective or
	// per-client; idempotent registration makes a fleet share one counter
	// set). Nil disables.
	Metrics *obs.Registry
}

// accRewardScale maps raw accuracy-improvement fractions into the agent's
// [-1, 1] reward range: a +0.2 local accuracy jump saturates the reward.
const accRewardScale = 5

// Float is the FLOAT controller. It implements fl.Controller.
type Float struct {
	agent      *rl.Agent // collective table; nil in per-client mode
	gb, ge, gk int

	// Per-client mode: lazily created local agents, seeded per client.
	perClient map[int]*rl.Agent
	agentCfg  rl.Config

	// pending remembers the state and HF bin each client was given its
	// action under, so feedback lands on the right Q-table cell even
	// though the engine's resource snapshot has moved on by then.
	pending map[int]rl.State

	metrics *obs.Registry
}

var _ fl.Controller = (*Float)(nil)
var _ fl.TimelineContributor = (*Float)(nil)

// New constructs a FLOAT controller.
func New(cfg Config) *Float {
	gb, ge, gk := rl.DiscretizeGlobals(cfg.BatchSize, cfg.Epochs, cfg.ClientsPerRound)
	f := &Float{
		gb:       gb,
		ge:       ge,
		gk:       gk,
		agentCfg: cfg.Agent,
		pending:  make(map[int]rl.State),
		metrics:  cfg.Metrics,
	}
	if cfg.PerClient {
		f.perClient = make(map[int]*rl.Agent)
	} else {
		f.agent = rl.NewAgent(cfg.Agent)
		if f.metrics != nil {
			f.agent.Instrument(f.metrics)
		}
	}
	return f
}

// agentFor returns the agent serving a client: the collective table, or
// the client's own lazily-created local table in per-client mode.
func (f *Float) agentFor(clientID int) *rl.Agent {
	if f.agent != nil {
		return f.agent
	}
	a, ok := f.perClient[clientID]
	if !ok {
		cfg := f.agentCfg
		cfg.Seed = cfg.Seed*31 + int64(clientID) + 1
		a = rl.NewAgent(cfg)
		if f.metrics != nil {
			a.Instrument(f.metrics)
		}
		f.perClient[clientID] = a
	}
	return a
}

// Name implements fl.Controller: "float" for the full RLHF design,
// "float-rl" when human feedback is disabled (the Fig 11 ablation arm),
// "float-local" for per-client tables.
func (f *Float) Name() string {
	if f.agent == nil {
		return "float-local"
	}
	if f.agent.Config().DisableHF {
		return "float-rl"
	}
	return "float"
}

// Agent exposes the collective RLHF agent (Q-table dumps, save/load,
// reward-history plots). It returns nil in per-client mode; use Summary
// for mode-independent reporting.
func (f *Float) Agent() *rl.Agent { return f.agent }

// Summary aggregates learning statistics across whichever agents exist —
// the one collective table or all per-client tables.
type Summary struct {
	Agents      int
	States      int
	Updates     int
	MemoryBytes int64
	// MeanRecentReward averages the last quarter of each agent's reward
	// history, weighted by its update count.
	MeanRecentReward float64
	Actions          []rl.ActionStats
}

// Summary reports merged statistics for the controller's agents.
func (f *Float) Summary() Summary {
	agents := []*rl.Agent{}
	if f.agent != nil {
		agents = append(agents, f.agent)
	} else {
		// Merge per-client agents in client-ID order: the reward and
		// Q-statistic merges below are floating-point sums, so map-order
		// iteration would make the summary nondeterministic.
		ids := make([]int, 0, len(f.perClient))
		for id := range f.perClient {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			agents = append(agents, f.perClient[id])
		}
	}
	var sum Summary
	sum.Agents = len(agents)
	var merged []rl.ActionStats
	var rewardWeight float64
	for _, a := range agents {
		sum.States += a.StatesVisited()
		sum.Updates += a.Updates()
		sum.MemoryBytes += a.MemoryBytes()
		if u := a.Updates(); u > 0 {
			w := float64(u)
			sum.MeanRecentReward += float64(w * a.MeanRecentReward(u/4))
			rewardWeight += w
		}
		for i, st := range a.ActionSummary() {
			if merged == nil {
				merged = make([]rl.ActionStats, len(a.Actions()))
			}
			merged[i].Technique = st.Technique
			merged[i].Part += float64(st.Part * float64(st.Visits))
			merged[i].Acc += float64(st.Acc * float64(st.Visits))
			merged[i].Visits += st.Visits
		}
	}
	for i := range merged {
		if merged[i].Visits > 0 {
			merged[i].Part /= float64(merged[i].Visits)
			merged[i].Acc /= float64(merged[i].Visits)
		}
	}
	if rewardWeight > 0 {
		sum.MeanRecentReward /= rewardWeight
	}
	sum.Actions = merged
	return sum
}

// Reference capacities that anchor the effective-resource state encoding:
// a client at these levels (with full availability) is resource-rich for
// any workload in the registry. The paper's local state covers both the
// runtime availability percentages (Table 1) and the device's "compute,
// network, and energy capacity"; folding capacity into the bins lets one
// collective Q-table serve a heterogeneous population — a weak phone and
// an edge box under identical interference land in different states.
const (
	refGFLOPS = 40.0
	refMbps   = 100.0
	refMemMB  = 6000.0
)

// stateFor builds the agent state from a resource snapshot and the
// client's latest deadline-difference feedback. Each resource dimension is
// the product of runtime availability and normalized device capacity.
func (f *Float) stateFor(c *device.Client, res device.Resources, hfDeadlineDiff float64) rl.State {
	bins := f.agentCfg.Bins
	if bins <= 0 {
		bins = rl.DefaultBins
	}
	capCPU, capNet, capMem := 1.0, 1.0, 1.0
	if c != nil {
		capCPU = clampUnit(c.Compute.GFLOPS / refGFLOPS)
		capNet = clampUnit(res.BandwidthMbps / refMbps)
		capMem = clampUnit(c.Compute.MemoryMB / refMemMB)
	}
	cpu, mem, net := rl.DiscretizeResources(
		res.CPUFrac*capCPU, res.MemFrac*capMem, res.NetFrac*capNet, bins)
	return rl.State{
		GB: f.gb, GE: f.ge, GK: f.gk,
		CPU: cpu, Mem: mem, Net: net,
		HF: rl.DiscretizeDeadlineDiff(hfDeadlineDiff, bins),
	}
}

func clampUnit(x float64) float64 {
	if x > 1 {
		return 1
	}
	if x < 0 {
		return 0
	}
	return x
}

// Decide implements fl.Controller.
func (f *Float) Decide(round int, c *device.Client, res device.Resources, hfDeadlineDiff float64) opt.Technique {
	s := f.stateFor(c, res, hfDeadlineDiff)
	f.pending[c.ID] = s
	return f.agentFor(c.ID).SelectAction(s)
}

// Feedback implements fl.Controller.
func (f *Float) Feedback(round int, c *device.Client, tech opt.Technique, out device.Outcome, accImprove float64) {
	s, ok := f.pending[c.ID]
	if !ok {
		// Feedback for a decision this controller never made (e.g. a
		// baseline round); nothing to learn from.
		return
	}
	delete(f.pending, c.ID)
	if tech == opt.TechNone {
		return // not in the action space
	}
	// Update errors only occur for techniques outside the action space,
	// which the guard above excludes; the agent's own validation is the
	// backstop.
	_ = f.agentFor(c.ID).Update(round, s, tech, out.Completed, accImprove*accRewardScale)
}

// TimelineSeries implements fl.TimelineContributor: the agent's
// per-action visit distribution as rl_action_visits{action="..."} series,
// merged across per-client tables in client-ID order (integer sums, so
// the merge is exact). Sampled at every quiescent boundary, this is the
// timeline's view of when the RL policy shifted.
func (f *Float) TimelineSeries() []obs.SeriesValue {
	var actions []opt.Technique
	var visits []int
	if f.agent != nil {
		actions = f.agent.Actions()
		visits = f.agent.ActionVisits()
	} else {
		ids := make([]int, 0, len(f.perClient))
		for id := range f.perClient {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			a := f.perClient[id]
			if actions == nil {
				actions = a.Actions()
				visits = make([]int, len(actions))
			}
			for i, v := range a.ActionVisits() {
				visits[i] += v
			}
		}
	}
	out := make([]obs.SeriesValue, 0, len(actions))
	for i, t := range actions {
		out = append(out, obs.SeriesValue{
			Name:  `rl_action_visits{action="` + t.String() + `"}`,
			Value: float64(visits[i]),
		})
	}
	return out
}

// SaveAgent serializes the collective agent (pre-training for transfer).
// It fails in per-client mode, where tables never leave their clients.
func (f *Float) SaveAgent(w io.Writer) error {
	if f.agent == nil {
		return fmt.Errorf("core: per-client Q-tables are private and cannot be exported")
	}
	return f.agent.Save(w)
}

// LoadAgent loads a pre-trained agent snapshot (RQ3: reuse on a new
// workload at minimal cost). It fails in per-client mode.
func (f *Float) LoadAgent(r io.Reader) error {
	if f.agent == nil {
		return fmt.Errorf("core: per-client Q-tables cannot be seeded from a snapshot")
	}
	return f.agent.Load(r)
}

// Heuristic is the Section 4.4 rules-based controller: aggressive
// optimization when CPU and network are both below "Moderate", mild
// optimization otherwise, with the technique chosen at random within the
// chosen intensity tier.
type Heuristic struct {
	bins int
	rng  *rngstate.Source
}

var _ fl.Controller = (*Heuristic)(nil)

// NewHeuristic constructs the heuristic controller.
func NewHeuristic(seed int64) *Heuristic {
	return &Heuristic{bins: rl.DefaultBins, rng: rngstate.New(seed)}
}

// Name implements fl.Controller.
func (h *Heuristic) Name() string { return "heuristic" }

var (
	aggressiveTechs = []opt.Technique{opt.TechPrune75, opt.TechPartial75, opt.TechQuant8}
	mildTechs       = []opt.Technique{opt.TechQuant16, opt.TechPrune25, opt.TechPartial25}
)

// Decide implements fl.Controller using the paper's two rules.
func (h *Heuristic) Decide(_ int, _ *device.Client, res device.Resources, _ float64) opt.Technique {
	cpu, _, net := rl.DiscretizeResources(res.CPUFrac, res.MemFrac, res.NetFrac, h.bins)
	moderate := 2 // Table 1's "Moderate" bin index at 5-bin resolution
	if cpu < moderate && net < moderate {
		return aggressiveTechs[h.rng.Intn(len(aggressiveTechs))]
	}
	return mildTechs[h.rng.Intn(len(mildTechs))]
}

// Feedback implements fl.Controller (heuristics learn nothing).
func (h *Heuristic) Feedback(int, *device.Client, opt.Technique, device.Outcome, float64) {}

// String renders a short description for logs.
func (f *Float) String() string {
	sum := f.Summary()
	return fmt.Sprintf("FLOAT(agents=%d, states=%d, updates=%d)", sum.Agents, sum.States, sum.Updates)
}
