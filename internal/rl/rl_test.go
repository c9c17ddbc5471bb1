package rl

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"floatfl/internal/opt"
)

func TestDiscretizeGlobals(t *testing.T) {
	cases := []struct {
		batch, epochs, k int
		gb, ge, gk       int
	}{
		{4, 2, 5, 0, 0, 0},
		{8, 5, 10, 1, 1, 1},
		{20, 5, 30, 1, 1, 1}, // the paper's end-to-end settings
		{32, 10, 50, 2, 2, 2},
		{100, 20, 500, 2, 2, 2},
	}
	for _, c := range cases {
		gb, ge, gk := DiscretizeGlobals(c.batch, c.epochs, c.k)
		if gb != c.gb || ge != c.ge || gk != c.gk {
			t.Fatalf("DiscretizeGlobals(%d,%d,%d) = %d,%d,%d; want %d,%d,%d",
				c.batch, c.epochs, c.k, gb, ge, gk, c.gb, c.ge, c.gk)
		}
	}
}

func TestDiscretizeResources(t *testing.T) {
	// Table 1 bins at the default resolution.
	cpu, mem, net := DiscretizeResources(0, 0, 0.01, DefaultBins)
	if cpu != 0 || mem != 0 || net != 0 {
		t.Fatalf("low availability bins = %d %d %d", cpu, mem, net)
	}
	cpu, _, net = DiscretizeResources(0.8, 0.8, 1.0, DefaultBins)
	if cpu != DefaultBins-1 || net != DefaultBins-1 {
		t.Fatalf("full availability should hit the top bin, got cpu=%d net=%d", cpu, net)
	}
	// Monotone in the fraction.
	prev := -1
	for f := 0.0; f <= 0.8; f += 0.05 {
		b, _, _ := DiscretizeResources(f, 0, 0, DefaultBins)
		if b < prev {
			t.Fatalf("cpu bin not monotone at %v", f)
		}
		prev = b
	}
}

func TestDiscretizeDeadlineDiff(t *testing.T) {
	if DiscretizeDeadlineDiff(0, 5) != 0 {
		t.Fatal("meeting the deadline must map to bin 0 (None)")
	}
	if DiscretizeDeadlineDiff(0.05, 5) != 1 {
		t.Fatal("<10% overrun must map to bin 1 (Low)")
	}
	if DiscretizeDeadlineDiff(0.15, 5) != 2 {
		t.Fatal("<20% overrun must map to bin 2 (Moderate)")
	}
	if DiscretizeDeadlineDiff(0.25, 5) != 3 {
		t.Fatal("<30% overrun must map to bin 3 (High)")
	}
	if DiscretizeDeadlineDiff(0.5, 5) != 4 || DiscretizeDeadlineDiff(10, 5) != 4 {
		t.Fatal(">=30% overrun must map to the top bin (Very High)")
	}
}

func TestStateKeyUnique(t *testing.T) {
	seen := map[int]State{}
	for gb := 0; gb < 3; gb++ {
		for cpu := 0; cpu < 5; cpu++ {
			for mem := 0; mem < 5; mem++ {
				for net := 0; net < 5; net++ {
					for hf := 0; hf < 5; hf++ {
						s := State{GB: gb, CPU: cpu, Mem: mem, Net: net, HF: hf}
						k := s.Key(5)
						if prev, dup := seen[k]; dup {
							t.Fatalf("key collision: %v and %v -> %d", prev, s, k)
						}
						seen[k] = s
					}
				}
			}
		}
	}
}

func TestNumResourceStates(t *testing.T) {
	if NumResourceStates(5) != 125 {
		t.Fatalf("the paper's 125 state combinations: got %d", NumResourceStates(5))
	}
	if NumResourceStates(0) != 125 {
		t.Fatal("default bins should be 5")
	}
	if NumResourceStates(3) != 27 {
		t.Fatal("3-bin resolution should give 27")
	}
}

func TestAgentDefaults(t *testing.T) {
	a := NewAgent(Config{Seed: 1})
	cfg := a.Config()
	if cfg.Bins != 5 || cfg.Epsilon != 0.15 || cfg.TotalRounds != 300 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if len(a.Actions()) != 8 {
		t.Fatalf("action space size %d, want 8", len(a.Actions()))
	}
}

func TestAgentLearnsBestAction(t *testing.T) {
	a := NewAgent(Config{Seed: 2, Epsilon: 0.2, TotalRounds: 100})
	s := State{CPU: 1, Mem: 2, Net: 3}
	// Environment: quant8 always succeeds with good accuracy; everything
	// else fails.
	for round := 0; round < 400; round++ {
		act := a.SelectAction(s)
		ok := act == opt.TechQuant8
		acc := 0.0
		if ok {
			acc = 0.1
		}
		if err := a.Update(round%100, s, act, ok, acc); err != nil {
			t.Fatal(err)
		}
	}
	// Exploitation must now choose quant8.
	counts := map[opt.Technique]int{}
	for i := 0; i < 200; i++ {
		counts[a.SelectAction(s)]++
	}
	if counts[opt.TechQuant8] < 120 {
		t.Fatalf("agent failed to converge on the rewarded action: %v", counts)
	}
	q := a.QValues(s)
	best := q[0]
	for _, v := range q {
		if v > best {
			best = v
		}
	}
	part, _ := a.Objectives(s)
	var bestIdx int
	for i, act := range a.Actions() {
		if act == opt.TechQuant8 {
			bestIdx = i
		}
	}
	if part[bestIdx] < 0.8 {
		t.Fatalf("participation objective for the winning action is %v", part[bestIdx])
	}
}

func TestAgentStateSeparation(t *testing.T) {
	// Different states learn different policies.
	a := NewAgent(Config{Seed: 3, Epsilon: 0.25})
	sNet := State{CPU: 4, Mem: 4, Net: 0} // network-constrained
	sCPU := State{CPU: 0, Mem: 4, Net: 4} // compute-constrained
	for round := 0; round < 600; round++ {
		for _, s := range []State{sNet, sCPU} {
			act := a.SelectAction(s)
			eff := act.Effects()
			var ok bool
			if s == sNet {
				ok = eff.CommFactor <= 0.5 // only strong comm savers succeed
			} else {
				ok = eff.ComputeFactor <= 0.7 // only strong compute savers succeed
			}
			acc := 0.0
			if ok {
				acc = 0.05
			}
			if err := a.Update(round%300, s, act, ok, acc); err != nil {
				t.Fatal(err)
			}
		}
	}
	// In the network-constrained state the agent should favour quant8 or
	// prune75; in the compute-constrained state partial50/75 or prune75.
	// Assert on the greedy argmax (SelectAction may explore).
	argmax := func(s State) opt.Technique {
		q := a.QValues(s)
		best, bestIdx := q[0], 0
		for i, v := range q {
			if v > best {
				best, bestIdx = v, i
			}
		}
		return a.Actions()[bestIdx]
	}
	pickNet := argmax(sNet)
	if pickNet.Effects().CommFactor > 0.5 {
		t.Fatalf("network-constrained state picked %v (CommFactor %v)",
			pickNet, pickNet.Effects().CommFactor)
	}
	pickCPU := argmax(sCPU)
	if pickCPU.Effects().ComputeFactor > 0.7 {
		t.Fatalf("compute-constrained state picked %v (ComputeFactor %v)",
			pickCPU, pickCPU.Effects().ComputeFactor)
	}
}

func TestBalancedExplorationCoversActions(t *testing.T) {
	a := NewAgent(Config{Seed: 4, Epsilon: 1.0}) // always explore
	s := State{}
	for round := 0; round < 80; round++ {
		act := a.SelectAction(s)
		if err := a.Update(round, s, act, true, 0); err != nil {
			t.Fatal(err)
		}
	}
	// With balanced exploration and 80 pulls over 8 actions, every action
	// should have been tried ~10 times.
	part, _ := a.Objectives(s)
	_ = part
	cs := a.table[State{}.Key(a.cfg.Bins)]
	for i, c := range cs {
		if c.Visits < 5 {
			t.Fatalf("balanced exploration starved action %v (%d visits)", a.actions[i], c.Visits)
		}
	}
}

func TestHFDisabledCollapsesStates(t *testing.T) {
	a := NewAgent(Config{Seed: 5, DisableHF: true})
	s1 := State{CPU: 1, HF: 0}
	s2 := State{CPU: 1, HF: 4}
	if err := a.Update(0, s1, opt.TechQuant8, true, 0.5); err != nil {
		t.Fatal(err)
	}
	q1, q2 := a.QValues(s1), a.QValues(s2)
	for i := range q1 {
		if q1[i] != q2[i] {
			t.Fatal("with HF disabled, states differing only in HF must share Q-values")
		}
	}
	b := NewAgent(Config{Seed: 5})
	if err := b.Update(0, s1, opt.TechQuant8, true, 0.5); err != nil {
		t.Fatal(err)
	}
	q1, q2 = b.QValues(s1), b.QValues(s2)
	same := true
	for i := range q1 {
		if q1[i] != q2[i] {
			same = false
		}
	}
	if same {
		t.Fatal("with HF enabled, HF bins must distinguish states")
	}
}

func TestFeedbackCacheSynthesizesRewards(t *testing.T) {
	a := NewAgent(Config{Seed: 6})
	s := State{CPU: 2}
	// Successful rounds seed the cache with a strong accuracy improvement.
	for i := 0; i < 10; i++ {
		if err := a.Update(i, s, opt.TechQuant16, true, 0.8); err != nil {
			t.Fatal(err)
		}
	}
	// A dropout with unknown accuracy still receives a non-zero accuracy
	// estimate from the cache.
	if err := a.Update(10, s, opt.TechPrune75, false, 0); err != nil {
		t.Fatal(err)
	}
	_, acc := a.Objectives(s)
	var pruneIdx int
	for i, act := range a.Actions() {
		if act == opt.TechPrune75 {
			pruneIdx = i
		}
	}
	if acc[pruneIdx] == 0 {
		t.Fatal("feedback cache did not synthesize an accuracy reward for the dropout")
	}

	// Without the cache the dropout's accuracy reward is exactly zero.
	b := NewAgent(Config{Seed: 6, DisableFeedbackCache: true})
	for i := 0; i < 10; i++ {
		if err := b.Update(i, s, opt.TechQuant16, true, 0.8); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Update(10, s, opt.TechPrune75, false, 0.99); err != nil {
		t.Fatal(err)
	}
	_, acc = b.Objectives(s)
	if acc[pruneIdx] != 0 {
		t.Fatal("disabled cache should zero the dropout's accuracy reward")
	}
}

func TestDynamicLearningRate(t *testing.T) {
	a := NewAgent(Config{Seed: 7, TotalRounds: 100})
	if lr := a.learningRate(0); lr != 0.1 {
		t.Fatalf("lr(0) = %v, want 0.1", lr)
	}
	if lr := a.learningRate(50); lr <= 0.1 || lr >= 1 {
		t.Fatalf("lr(50) = %v, want in (0.1, 1)", lr)
	}
	if lr := a.learningRate(1000); lr != 1 {
		t.Fatalf("lr must cap at 1, got %v", lr)
	}
	b := NewAgent(Config{Seed: 7, FixedLR: true})
	if lr := b.learningRate(500); lr != 0.1 {
		t.Fatalf("fixed lr = %v, want 0.1", lr)
	}
}

func TestAdditiveRewardsInflate(t *testing.T) {
	// RQ6's first issue: additive accumulation makes a mediocre,
	// often-chosen action outscore a better, rarely-chosen one.
	add := NewAgent(Config{Seed: 8, AdditiveRewards: true, FixedLR: true})
	ma := NewAgent(Config{Seed: 8, FixedLR: true})
	s := State{}
	for i := 0; i < 100; i++ {
		// quant16 (mediocre: reward 0.5) gets 10x the visits of quant8
		// (excellent: reward 1.0).
		if err := add.Update(i, s, opt.TechQuant16, true, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := ma.Update(i, s, opt.TechQuant16, true, 0.5); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if err := add.Update(i, s, opt.TechQuant8, true, 1.0); err != nil {
				t.Fatal(err)
			}
			if err := ma.Update(i, s, opt.TechQuant8, true, 1.0); err != nil {
				t.Fatal(err)
			}
		}
	}
	idx := func(a *Agent, t16 opt.Technique) int {
		for i, act := range a.Actions() {
			if act == t16 {
				return i
			}
		}
		return -1
	}
	qAdd := add.QValues(s)
	if qAdd[idx(add, opt.TechQuant8)] >= qAdd[idx(add, opt.TechQuant16)] {
		t.Fatal("additive mode should (wrongly) inflate the often-visited action")
	}
	qMA := ma.QValues(s)
	if qMA[idx(ma, opt.TechQuant8)] <= qMA[idx(ma, opt.TechQuant16)] {
		t.Fatal("moving-average mode should rank the better action higher")
	}
}

func TestUpdateRejectsUnknownAction(t *testing.T) {
	a := NewAgent(Config{Seed: 9})
	if err := a.Update(0, State{}, opt.TechNone, true, 0); err == nil {
		t.Fatal("Update accepted TechNone, which is not in the action space")
	}
}

func TestRewardHistoryAndMeanRecent(t *testing.T) {
	a := NewAgent(Config{Seed: 10})
	s := State{}
	for i := 0; i < 10; i++ {
		ok := i >= 5 // second half all succeed
		if err := a.Update(i, s, opt.TechQuant8, ok, 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.RewardHistory()) != 10 || a.Updates() != 10 {
		t.Fatal("reward history length wrong")
	}
	// A completed round with no accuracy change earns the participation
	// weight wp; a dropped one earns nothing.
	if got := a.MeanRecentReward(5); math.Abs(got-wp) > 1e-12 {
		t.Fatalf("recent reward = %v, want %v", got, wp)
	}
	if got := a.MeanRecentReward(0); math.Abs(got-wp/2) > 1e-12 {
		t.Fatalf("full-history reward = %v, want %v", got, wp/2)
	}
	if NewAgent(Config{}).MeanRecentReward(5) != 0 {
		t.Fatal("empty history should average 0")
	}
}

func TestMemoryBytesUnderPaperBound(t *testing.T) {
	a := NewAgent(Config{Seed: 11, Epsilon: 1})
	// Visit all 125 resource states (plus the paper's fixed globals).
	for cpu := 0; cpu < 5; cpu++ {
		for mem := 0; mem < 5; mem++ {
			for net := 0; net < 5; net++ {
				s := State{GB: 1, GE: 1, GK: 1, CPU: cpu, Mem: mem, Net: net}
				act := a.SelectAction(s)
				if err := a.Update(0, s, act, true, 0.1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if a.StatesVisited() != 125 {
		t.Fatalf("visited %d states, want 125", a.StatesVisited())
	}
	if mb := a.MemoryBytes(); mb > 200_000 {
		t.Fatalf("Q-table memory %d bytes exceeds the paper's 0.2 MB bound", mb)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	a := NewAgent(Config{Seed: 12})
	s := State{CPU: 3, Net: 1}
	for i := 0; i < 50; i++ {
		act := a.SelectAction(s)
		if err := a.Update(i, s, act, i%2 == 0, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := NewAgent(Config{Seed: 99})
	if err := b.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	qa, qb := a.QValues(s), b.QValues(s)
	for i := range qa {
		if math.Abs(qa[i]-qb[i]) > 1e-12 {
			t.Fatalf("Q-values differ after round trip: %v vs %v", qa, qb)
		}
	}
	if b.StatesVisited() != a.StatesVisited() {
		t.Fatal("state count differs after round trip")
	}
}

func TestLoadRejectsIncompatible(t *testing.T) {
	a := NewAgent(Config{Seed: 13, Bins: 5})
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := NewAgent(Config{Seed: 13, Bins: 3})
	if err := b.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("Load accepted mismatched bin resolution")
	}
	if err := b.Load(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("Load accepted garbage")
	}
}

func TestTransferConvergesFaster(t *testing.T) {
	// Fig 9's claim: a pre-trained agent fine-tunes in far fewer rounds
	// than a cold-started one. Environment: only strong comm savers
	// succeed (unstable network).
	env := func(act opt.Technique) (bool, float64) {
		if act.Effects().CommFactor <= 0.5 {
			return true, 0.05
		}
		return false, 0
	}
	train := func(a *Agent, rounds int) {
		s := State{Net: 0, CPU: 4, Mem: 4}
		for i := 0; i < rounds; i++ {
			act := a.SelectAction(s)
			ok, acc := env(act)
			if err := a.Update(i, s, act, ok, acc); err != nil {
				t.Fatal(err)
			}
		}
	}
	pre := NewAgent(Config{Seed: 14, Epsilon: 0.2})
	train(pre, 500)
	var buf bytes.Buffer
	if err := pre.Save(&buf); err != nil {
		t.Fatal(err)
	}

	warm := NewAgent(Config{Seed: 15, Epsilon: 0.2})
	if err := warm.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	cold := NewAgent(Config{Seed: 15, Epsilon: 0.2})

	train(warm, 30)
	train(cold, 30)
	if warm.MeanRecentReward(30) <= cold.MeanRecentReward(30) {
		t.Fatalf("pre-trained agent should outperform cold start early: warm=%v cold=%v",
			warm.MeanRecentReward(30), cold.MeanRecentReward(30))
	}
}

// Property: Q-values stay within the reward hull [-1, 1] under the
// moving-average update with discount 0.
func TestQValueBoundsQuick(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		a := NewAgent(Config{Seed: seed})
		s := State{CPU: 1}
		for i := 0; i < int(steps); i++ {
			act := a.SelectAction(s)
			ok := i%3 != 0
			acc := float64(i%7)/3 - 1 // in [-1, 1]
			if err := a.Update(i, s, act, ok, acc); err != nil {
				return false
			}
		}
		for _, q := range a.QValues(s) {
			if q < -1.000001 || q > 1.000001 || math.IsNaN(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
