package rl

import (
	"bytes"
	"testing"

	"floatfl/internal/opt"
)

// extendedActions is the paper's 8-action space plus the lossless
// compression extension technique.
func extendedActions() []opt.Technique {
	return append(opt.Actions(), opt.TechCompress)
}

func TestExtendedActionSpace(t *testing.T) {
	a := NewAgent(Config{Seed: 1, Actions: extendedActions()})
	if len(a.Actions()) != 9 {
		t.Fatalf("extended agent has %d actions, want 9", len(a.Actions()))
	}
	s := State{CPU: 2, Net: 1}
	// The extension action participates in learning like any other.
	for i := 0; i < 200; i++ {
		act := a.SelectAction(s)
		ok := act == opt.TechCompress
		acc := 0.0
		if ok {
			acc = 0.1
		}
		if err := a.Update(i%100, s, act, ok, acc); err != nil {
			t.Fatal(err)
		}
	}
	q := qValues(a, s)
	best, bestIdx := q[0], 0
	for i, v := range q {
		if v > best {
			best, bestIdx = v, i
		}
	}
	if a.Actions()[bestIdx] != opt.TechCompress {
		t.Fatalf("agent did not learn the extension action; argmax is %v", a.Actions()[bestIdx])
	}
}

func TestExtendedSearchSpaceGrowsLinearly(t *testing.T) {
	// RQ5's claim: adding one action adds exactly S cells, where S is the
	// number of visited states — linear, not combinatorial.
	visit := func(actions []opt.Technique) int64 {
		a := NewAgent(Config{Seed: 2, Actions: actions, Epsilon: 1})
		for cpu := 0; cpu < 5; cpu++ {
			for net := 0; net < 5; net++ {
				s := State{CPU: cpu, Net: net}
				act := a.SelectAction(s)
				if err := a.Update(0, s, act, true, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		return a.MemoryBytes()
	}
	base := visit(opt.Actions())
	extended := visit(extendedActions())
	grew := extended - base
	// 25 states × 1 extra cell × 24 bytes = 600 bytes of true growth.
	if grew <= 0 || grew > 2000 {
		t.Fatalf("memory growth for one extra action is %d bytes; want small and linear", grew)
	}
}

func TestSnapshotRejectsDifferentActionSpace(t *testing.T) {
	ext := NewAgent(Config{Seed: 3, Actions: extendedActions()})
	var buf bytes.Buffer
	if err := ext.Save(&buf); err != nil {
		t.Fatal(err)
	}
	std := NewAgent(Config{Seed: 3})
	if err := std.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("8-action agent loaded a 9-action snapshot")
	}
	// Same extended space round trips fine.
	ext2 := NewAgent(Config{Seed: 4, Actions: extendedActions()})
	if err := ext2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateRejectsOutOfSpaceAction(t *testing.T) {
	a := NewAgent(Config{Seed: 5}) // standard 8 actions
	if err := a.Update(0, State{}, opt.TechCompress, true, 0); err == nil {
		t.Fatal("standard agent accepted the extension technique")
	}
}
