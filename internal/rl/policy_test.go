package rl

import (
	"math/rand"
	"testing"
	"testing/quick"

	"floatfl/internal/opt"
)

// Property: UnKey inverts Key for every legal state.
func TestUnKeyRoundTripQuick(t *testing.T) {
	f := func(gb, ge, gk, cpu, mem, net, hf uint8) bool {
		s := State{
			GB: int(gb) % 3, GE: int(ge) % 3, GK: int(gk) % 3,
			CPU: int(cpu) % 5, Mem: int(mem) % 5, Net: int(net) % 5, HF: int(hf) % 5,
		}
		return UnKey(s.Key(5), 5) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUnKeyDefaultBins(t *testing.T) {
	s := State{GB: 2, CPU: 3, Net: 1, HF: 4}
	if UnKey(s.Key(0), 0) != s {
		t.Fatal("UnKey with bins=0 should use the default resolution")
	}
}

func TestPolicyDump(t *testing.T) {
	a := NewAgent(Config{Seed: 1, Epsilon: 0.01})
	// Teach two states two different best actions.
	teach := func(s State, best opt.Technique) {
		for i := 0; i < 60; i++ {
			act := a.SelectAction(s)
			ok := act == best
			acc := 0.0
			if ok {
				acc = 0.2
			}
			if err := a.Update(i, s, act, ok, acc); err != nil {
				t.Fatal(err)
			}
		}
	}
	s1 := State{CPU: 0, Net: 4}
	s2 := State{CPU: 4, Net: 0}
	teach(s1, opt.TechPartial75)
	teach(s2, opt.TechQuant8)

	dump := a.PolicyDump()
	if len(dump) != 2 {
		t.Fatalf("policy dump has %d states, want 2", len(dump))
	}
	// Sorted by key: verify each entry maps back to its taught action.
	found := map[State]opt.Technique{}
	for _, e := range dump {
		if e.Visits == 0 {
			t.Fatal("dump entry with zero visits")
		}
		found[e.State] = e.Action
	}
	if found[s1] != opt.TechPartial75 {
		t.Fatalf("state %v policy %v, want partial75", s1, found[s1])
	}
	if found[s2] != opt.TechQuant8 {
		t.Fatalf("state %v policy %v, want quant8", s2, found[s2])
	}
	// Deterministic ordering.
	again := a.PolicyDump()
	for i := range dump {
		if dump[i].State != again[i].State {
			t.Fatal("PolicyDump ordering is not stable")
		}
	}
}

func TestPolicyDumpEmptyAgent(t *testing.T) {
	a := NewAgent(Config{Seed: 2})
	if len(a.PolicyDump()) != 0 {
		t.Fatal("fresh agent should dump an empty policy")
	}
}

func TestActionSummaryWeighting(t *testing.T) {
	a := NewAgent(Config{Seed: 3})
	s1, s2 := State{CPU: 0}, State{CPU: 4}
	// quant16 in s1: 3 visits all success; in s2: 1 visit failure. A
	// cell's first visit averages exactly (lr = 1), so s2's estimate is 0.
	for i := 0; i < 3; i++ {
		if err := a.Update(0, s1, opt.TechQuant16, true, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Update(0, s2, opt.TechQuant16, false, 0); err != nil {
		t.Fatal(err)
	}
	var st ActionStats
	for _, x := range a.ActionSummary() {
		if x.Technique == opt.TechQuant16 {
			st = x
		}
	}
	if st.Visits != 4 {
		t.Fatalf("visits = %d, want 4", st.Visits)
	}
	// Visit-weighted participation: (3*1 + 1*0)/4 = 0.75.
	if st.Part < 0.74 || st.Part > 0.76 {
		t.Fatalf("visit-weighted participation %v, want 0.75", st.Part)
	}
}

func TestSelectActionDeterministicUnderSeed(t *testing.T) {
	run := func() []opt.Technique {
		a := NewAgent(Config{Seed: 9})
		rng := rand.New(rand.NewSource(5))
		var picks []opt.Technique
		for i := 0; i < 50; i++ {
			s := State{CPU: rng.Intn(5), Mem: rng.Intn(5), Net: rng.Intn(5)}
			act := a.SelectAction(s)
			picks = append(picks, act)
			if err := a.Update(i, s, act, i%2 == 0, 0.1); err != nil {
				t.Fatal(err)
			}
		}
		return picks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("agent not deterministic under fixed seed")
		}
	}
}
