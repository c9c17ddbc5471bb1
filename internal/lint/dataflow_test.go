package lint_test

import (
	"encoding/json"
	"path/filepath"
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

// TestSARIFOutput checks the SARIF 2.1.0 encoding end to end: valid JSON,
// the registered rule table, and one result per finding with a
// root-relative location.
func TestSARIFOutput(t *testing.T) {
	findings := runRules(t, "wallclock_bad.go", nil)
	if len(findings) == 0 {
		t.Fatal("fixture produced no findings")
	}
	data, err := lint.SARIF(findings, "")
	if err != nil {
		t.Fatal(err)
	}
	again, err := lint.SARIF(findings, "")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Error("SARIF encoding is not deterministic")
	}

	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 {
		t.Fatalf("version=%q runs=%d, want 2.1.0 with one run", doc.Version, len(doc.Runs))
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "floatlint" {
		t.Errorf("driver name %q", run.Tool.Driver.Name)
	}
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, name := range lint.RuleNames() {
		if !ruleIDs[name] {
			t.Errorf("registered rule %s missing from SARIF rule table", name)
		}
	}
	if len(run.Results) != len(findings) {
		t.Fatalf("got %d results, want %d", len(run.Results), len(findings))
	}
	for i, res := range run.Results {
		f := findings[i]
		if res.RuleID != f.Rule || res.Message.Text != f.Message {
			t.Errorf("result %d: got (%s, %q), want (%s, %q)", i, res.RuleID, res.Message.Text, f.Rule, f.Message)
		}
		if len(res.Locations) != 1 {
			t.Fatalf("result %d: %d locations", i, len(res.Locations))
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.Region.StartLine != f.Pos.Line {
			t.Errorf("result %d: startLine %d, want %d", i, loc.Region.StartLine, f.Pos.Line)
		}
		if strings.Contains(loc.ArtifactLocation.URI, "\\") {
			t.Errorf("result %d: URI %q not slash-separated", i, loc.ArtifactLocation.URI)
		}
	}

	// Root-relative URIs: passing the fixture's directory as root strips it.
	rel, err := lint.SARIF(findings, filepath.Dir(findings[0].Pos.Filename))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rel), `"uri": "wallclock_bad.go"`) {
		t.Error("SARIF URI not relativized against root")
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
