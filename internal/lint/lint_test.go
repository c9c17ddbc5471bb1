package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"floatfl/internal/lint"
)

// badFixtures maps every rule to the fixture that violates it. Each entry
// backs two guarantees: the golden file pins the exact findings, and
// TestEachRuleFires fails if the rule is disabled or stops firing.
var badFixtures = []struct {
	rule    string
	fixture string
}{
	{"no-wall-clock", "wallclock_bad.go"},
	{"no-global-rand", "rand_bad.go"},
	{"no-global-rand", "randsource_bad.go"},
	{"map-order-hazard", "maporder_bad.go"},
	{"map-order-hazard", "popcache_bad.go"},
	{"map-order-hazard", "ckptstate_bad.go"},
	{"flat-view-mutation", "flatview_bad.go"},
	{"naked-goroutine", "goroutine_bad.go"},
	{"tensor-backend", "backend_bad.go"},
	{"clock-taint", "clocktaint_bad.go"},
	{"rng-escape", "rngescape_bad.go"},
	{"ckpt-coverage", "ckptcover_bad.go"},
	{"phase-contract", "phase_bad.go"},
	{"no-wall-clock", "multiline_bad.go"},
}

// okFixtures hold the sanctioned patterns plus one //lint:allow-annotated
// violation per rule; all of them must come out clean, which exercises
// both the rules' negative space and the allowlist directive.
var okFixtures = []string{
	"wallclock_ok.go",
	"rand_ok.go",
	"randsource_ok.go",
	"maporder_ok.go",
	"popcache_ok.go",
	"ckptstate_ok.go",
	"flatview_ok.go",
	"goroutine_ok.go",
	"backend_ok.go",
	"clocktaint_ok.go",
	"rngescape_ok.go",
	"ckptcover_ok.go",
	"phase_ok.go",
	"multiline_ok.go",
	"timeline_ok.go",
}

func loadFixture(t *testing.T, name string) *lint.Package {
	t.Helper()
	loader := lint.NewLoader(".")
	pkg, err := loader.SingleFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

func runRules(t *testing.T, fixture string, enabled map[string]bool) []lint.Finding {
	t.Helper()
	return lint.Run([]*lint.Package{loadFixture(t, fixture)}, enabled)
}

// formatFindings renders findings without the filename (stable across
// checkouts) for golden comparison.
func formatFindings(findings []lint.Finding) string {
	var b strings.Builder
	for _, f := range findings {
		fmt.Fprintf(&b, "%d:%d: %s: %s\n", f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
	}
	return b.String()
}

// TestGoldenFindings compares each bad fixture's full-rule findings with
// its .golden file. Regenerate with UPDATE_GOLDEN=1 go test ./internal/lint.
func TestGoldenFindings(t *testing.T) {
	fixtures := make([]string, 0, len(badFixtures)+1)
	for _, bf := range badFixtures {
		fixtures = append(fixtures, bf.fixture)
	}
	fixtures = append(fixtures, "directive_bad.go")

	for _, fixture := range fixtures {
		fixture := fixture
		t.Run(fixture, func(t *testing.T) {
			got := formatFindings(runRules(t, fixture, nil))
			golden := filepath.Join("testdata", strings.TrimSuffix(fixture, ".go")+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden: %v (regenerate with UPDATE_GOLDEN=1)", err)
			}
			if got != string(want) {
				t.Errorf("findings for %s diverge from golden\n--- got ---\n%s--- want ---\n%s", fixture, got, want)
			}
		})
	}
}

// TestEachRuleFires runs every rule in isolation against its bad fixture:
// at least one finding, all carrying the rule's own name. Disabling or
// breaking any single analyzer fails this test.
func TestEachRuleFires(t *testing.T) {
	// Completeness ratchet: every registered rule must have a bad fixture,
	// so a new analyzer cannot land untested.
	covered := map[string]bool{}
	for _, bf := range badFixtures {
		covered[bf.rule] = true
	}
	for _, name := range lint.RuleNames() {
		if !covered[name] {
			t.Errorf("rule %s has no bad fixture in badFixtures", name)
		}
	}

	for _, bf := range badFixtures {
		bf := bf
		t.Run(bf.rule, func(t *testing.T) {
			findings := runRules(t, bf.fixture, map[string]bool{bf.rule: true})
			if len(findings) == 0 {
				t.Fatalf("rule %s produced no findings on %s; the analyzer is dead", bf.rule, bf.fixture)
			}
			for _, f := range findings {
				if f.Rule != bf.rule {
					t.Errorf("unexpected rule %s at %d:%d (only %s was enabled)", f.Rule, f.Pos.Line, f.Pos.Column, bf.rule)
				}
			}
			// The same fixture with the rule switched off must go quiet:
			// the findings belong to this analyzer alone.
			others := map[string]bool{}
			for _, name := range lint.RuleNames() {
				others[name] = name != bf.rule
			}
			if leftover := runRules(t, bf.fixture, others); len(leftover) != 0 {
				t.Errorf("disabling %s left %d finding(s) on %s: %v", bf.rule, len(leftover), bf.fixture, leftover)
			}
		})
	}
}

// TestSyntaxRulesNotSubsumed pins what the two syntax rules catch that
// their dataflow counterparts do not: on these fixtures clock-taint and
// rng-escape report nothing, so removing no-wall-clock or no-global-rand
// would lose every finding below.
func TestSyntaxRulesNotSubsumed(t *testing.T) {
	for _, tc := range []struct {
		fixture, syntax, dataflow string
		want                      int
	}{
		{"wallclock_bad.go", "no-wall-clock", "clock-taint", 5},
		{"rand_bad.go", "no-global-rand", "rng-escape", 3},
		{"randsource_bad.go", "no-global-rand", "rng-escape", 2},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			if got := len(runRules(t, tc.fixture, map[string]bool{tc.syntax: true})); got != tc.want {
				t.Errorf("%s: %d findings, want %d", tc.syntax, got, tc.want)
			}
			if got := runRules(t, tc.fixture, map[string]bool{tc.dataflow: true}); len(got) != 0 {
				t.Errorf("%s: %d findings, want 0: %v", tc.dataflow, len(got), got)
			}
		})
	}
}

// TestAllowlistedFixturesClean proves the sanctioned patterns and the
// //lint:allow directive both silence the analyzers.
func TestAllowlistedFixturesClean(t *testing.T) {
	for _, fixture := range okFixtures {
		fixture := fixture
		t.Run(fixture, func(t *testing.T) {
			if findings := runRules(t, fixture, nil); len(findings) != 0 {
				t.Errorf("ok fixture %s produced %d finding(s):\n%s", fixture, len(findings), formatFindings(findings))
			}
		})
	}
}

// TestMalformedDirectivesReported pins the directive contract: a broken
// //lint:allow is itself a finding and never suppresses the code below it.
func TestMalformedDirectivesReported(t *testing.T) {
	findings := runRules(t, "directive_bad.go", nil)
	var directives, wallClock int
	for _, f := range findings {
		switch f.Rule {
		case "directive":
			directives++
		case "no-wall-clock":
			wallClock++
		}
	}
	if directives != 4 {
		t.Errorf("got %d directive findings, want 4 (bare, unknown rule x2, missing reason):\n%s",
			directives, formatFindings(findings))
	}
	if wallClock != 1 {
		t.Errorf("got %d no-wall-clock findings, want 1 — a malformed directive must not suppress:\n%s",
			wallClock, formatFindings(findings))
	}
}

// TestRepoIsClean is the self-check: the analyzers run over the whole
// module and must report nothing — every real violation is either fixed
// or carries an explicit //lint:allow with a reason.
func TestRepoIsClean(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := lint.ModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.NewLoader(root).Packages("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader returned no packages for ./...")
	}
	findings := lint.Run(pkgs, nil)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Errorf("floatlint found %d unannotated violation(s) in the repo", len(findings))
	}
}
