// Command floatlint runs the repository's invariant analyzers — the
// determinism, aliasing, clock-injection, and cross-package dataflow
// rules in internal/lint — over the module and exits non-zero on
// findings. It is the CI gate that keeps wall-clock reads, global
// randomness, unsorted map iteration, parameter-view aliasing bugs,
// unjoinable goroutines, escaped RNG streams, under-checkpointed state,
// and fan-out phase violations out of the aggregation paths.
//
// Usage:
//
//	floatlint [-json] [-unused-directives] [-rules list]
//	          [-list] [packages...]
//
// With no package patterns it sweeps ./... from the enclosing module
// root. -rules selects analyzers: a comma-separated list of names runs
// only those; prefixing a name with '-' skips it and runs the rest
// (e.g. -rules -naked-goroutine). Findings suppressed with an inline
// `//lint:allow <rule> <reason>` directive are not reported;
// -unused-directives additionally reports directives that suppress
// nothing. -json emits the findings as a JSON array.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"floatfl/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	unusedDirectives := flag.Bool("unused-directives", false, "report //lint:allow directives that suppress nothing")
	rules := flag.String("rules", "", "comma-separated rules to run, or -name entries to skip (default: all)")
	list := flag.Bool("list", false, "list registered rules and exit")
	flag.Parse()

	if *list {
		for _, r := range lint.Rules {
			fmt.Printf("%-20s %s\n", r.Name, r.Doc)
		}
		return
	}

	enabled, err := selectRules(*rules)
	if err != nil {
		fatal(err)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.ModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	loader := lint.NewLoader(root)
	pkgs, err := loader.Packages(flag.Args()...)
	if err != nil {
		fatal(err)
	}

	findings := lint.RunOpts(pkgs, lint.Options{
		Enabled:          enabled,
		UnusedDirectives: *unusedDirectives,
	})

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "floatlint: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "floatlint:", err)
	os.Exit(2)
}

// selectRules parses the -rules flag into an enabled set (nil = all).
func selectRules(spec string) (map[string]bool, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "all" {
		return nil, nil
	}
	known := map[string]bool{}
	for _, name := range lint.RuleNames() {
		known[name] = true
	}
	enabled := map[string]bool{}
	var skips []string
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if name, isSkip := strings.CutPrefix(part, "-"); isSkip {
			skips = append(skips, name)
			continue
		}
		if !known[part] {
			return nil, fmt.Errorf("unknown rule %q (known: %s)", part, strings.Join(lint.RuleNames(), ", "))
		}
		enabled[part] = true
	}
	if len(skips) > 0 {
		if len(enabled) > 0 {
			return nil, fmt.Errorf("-rules cannot mix selections and -skips")
		}
		for _, name := range lint.RuleNames() {
			enabled[name] = true
		}
		for _, name := range skips {
			if !known[name] {
				return nil, fmt.Errorf("unknown rule %q (known: %s)", name, strings.Join(lint.RuleNames(), ", "))
			}
			delete(enabled, name)
		}
	}
	if len(enabled) == 0 {
		return nil, fmt.Errorf("-rules selected nothing")
	}
	return enabled, nil
}
