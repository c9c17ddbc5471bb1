package lint_test

import (
	"strings"
	"testing"

	"floatfl/internal/lint"
)

// TestCkptCoverageCatchesOmittedField is the seeded-fault acceptance test
// for the dataflow engine: ckptcover_bad.go implements checkpoint.Stateful
// with a field (dropped) that is mutated mid-run but deliberately omitted
// from both CheckpointState and RestoreCheckpoint — the rule must name the
// field and flag both directions, at the field's declaration.
func TestCkptCoverageCatchesOmittedField(t *testing.T) {
	findings := runRules(t, "ckptcover_bad.go", map[string]bool{"ckpt-coverage": true})
	var missEncode, missRestore bool
	for _, f := range findings {
		if f.Rule != "ckpt-coverage" || !strings.Contains(f.Message, "counter.dropped") {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		switch {
		case strings.Contains(f.Message, "never read in CheckpointState"):
			missEncode = true
		case strings.Contains(f.Message, "never written in RestoreCheckpoint"):
			missRestore = true
		}
	}
	if !missEncode {
		t.Error("omitted field not flagged on the CheckpointState side — snapshot omissions would ship")
	}
	if !missRestore {
		t.Error("omitted field not flagged on the RestoreCheckpoint side — divergent resumes would ship")
	}
	// The covered sibling field (steps) must not be flagged.
	for _, f := range findings {
		if strings.Contains(f.Message, "counter.steps") {
			t.Errorf("fully-covered field flagged: %s", f)
		}
	}
}

// TestUnusedDirectivesReported pins the stale-directive contract: with
// Options.UnusedDirectives a well-formed allow that suppresses nothing is
// itself a finding, while load-bearing allows stay silent.
func TestUnusedDirectivesReported(t *testing.T) {
	pkg := loadFixture(t, "unuseddir.go")
	findings := lint.RunOpts([]*lint.Package{pkg}, lint.Options{UnusedDirectives: true})
	if len(findings) != 1 {
		t.Fatalf("got %d finding(s), want exactly 1 unused-directive:\n%s", len(findings), formatFindings(findings))
	}
	f := findings[0]
	if f.Rule != "unused-directive" || !strings.Contains(f.Message, "no-wall-clock") {
		t.Errorf("unexpected finding: %s", f)
	}

	// A load-bearing directive (wallclock_ok.go's sanctioned read) must not
	// be reported as unused.
	pkg = loadFixture(t, "wallclock_ok.go")
	if findings := lint.RunOpts([]*lint.Package{pkg}, lint.Options{UnusedDirectives: true}); len(findings) != 0 {
		t.Errorf("load-bearing directive reported as unused:\n%s", formatFindings(findings))
	}
}

// TestCallGraphChains sanity-checks the substrate directly: literal
// containment, transitive reachability, and chain rendering on the
// clock-taint fixture.
func TestCallGraphChains(t *testing.T) {
	pkg := loadFixture(t, "clocktaint_bad.go")
	g := lint.BuildGraph([]*lint.Package{pkg})
	var root *lint.Node
	for _, n := range g.Nodes {
		if n.Obj != nil && n.Obj.Name() == "runRound" {
			root = n
		}
	}
	if root == nil {
		t.Fatal("runRound not in graph")
	}
	pred := g.ReachableFrom([]*lint.Node{root})
	var litReached, collectReached bool
	for n := range pred {
		if n.Lit != nil {
			litReached = true
			if got := lint.Chain(pred, n, 5); got != "fixture.runRound → func literal in fixture.runRound" {
				t.Errorf("chain = %q", got)
			}
		}
		if n.Obj != nil && n.Obj.Name() == "collect" {
			collectReached = true
		}
	}
	if !litReached {
		t.Error("containment edge missing: closure not reachable from its enclosing function")
	}
	if !collectReached {
		t.Error("static call edge missing: collect not reachable from runRound")
	}
}
