package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"floatfl/internal/lint"
)

// writeTree materializes a throwaway module for loader error-path tests.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoaderBrokenPackage pins the loader's failure mode on code that does
// not type-check: a lint error naming the package, not a panic and not a
// silent skip.
func TestLoaderBrokenPackage(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":  "module brokenmod\n\ngo 1.22\n",
		"main.go": "package main\n\nfunc main() { undefinedIdent() }\n",
	})
	_, err := lint.NewLoader(dir).Packages("./...")
	if err == nil {
		t.Fatal("loading a package with type errors succeeded")
	}
	if !strings.Contains(err.Error(), "undefinedIdent") {
		t.Errorf("error does not name the broken identifier: %v", err)
	}
}

// TestLoaderSyntaxError covers the parse-failure path (distinct from the
// type-check path: the file never reaches the checker).
func TestLoaderSyntaxError(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":  "module syntaxmod\n\ngo 1.22\n",
		"main.go": "package main\n\nfunc main() {\n", // unterminated body
	})
	_, err := lint.NewLoader(dir).Packages("./...")
	if err == nil {
		t.Fatal("loading a package with a syntax error succeeded")
	}
	if !strings.Contains(err.Error(), "parsing") && !strings.Contains(err.Error(), "expected") {
		t.Errorf("error does not look like a parse failure: %v", err)
	}
}

// TestLoaderMissingExportData covers the import-resolution failure: a
// package importing something go list cannot resolve to export data (an
// unknown module path) must error out, naming the import.
func TestLoaderMissingExportData(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":  "module missingmod\n\ngo 1.22\n",
		"main.go": "package main\n\nimport \"missingmod/nonexistent\"\n\nfunc main() { nonexistent.F() }\n",
	})
	_, err := lint.NewLoader(dir).Packages("./...")
	if err == nil {
		t.Fatal("loading with an unresolvable import succeeded")
	}
	if !strings.Contains(err.Error(), "nonexistent") {
		t.Errorf("error does not name the missing import: %v", err)
	}
}

// TestLoaderTestVariantPackages checks the test-variant folding contract:
// in-package _test.go files are analyzed with their package, external
// package foo_test files become their own "<path>_test" entry and see the
// helpers the in-package test files export, and the synthesized .test
// mains and bracketed variants never surface.
func TestLoaderTestVariantPackages(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":          "module variantmod\n\ngo 1.22\n",
		"lib.go":          "package lib\n\nfunc Answer() int { return 42 }\n",
		"lib_in_test.go":  "package lib\n\nimport \"testing\"\n\nfunc TestInternal(t *testing.T) { _ = Answer() }\n\nfunc AnswerForTest() int { return Answer() }\n",
		"lib_ext_test.go": "package lib_test\n\nimport (\n\t\"testing\"\n\n\t\"variantmod\"\n)\n\nfunc TestExternal(t *testing.T) { _ = lib.Answer() + lib.AnswerForTest() }\n",
	})
	pkgs, err := lint.NewLoader(dir).Packages("./...")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	want := map[string]int{"variantmod": 0, "variantmod_test": 0}
	for _, p := range pkgs {
		if _, ok := want[p.Path]; !ok {
			t.Errorf("unexpected package %q (test variants must fold, .test mains must vanish)", p.Path)
			continue
		}
		want[p.Path]++
	}
	for path, n := range want {
		if n != 1 {
			t.Errorf("package %q appeared %d times, want once (got: %v)", path, n, paths)
		}
	}
	// The in-package test file must be folded into the base package.
	for _, p := range pkgs {
		if p.Path != "variantmod" {
			continue
		}
		if len(p.Files) != 2 {
			t.Errorf("base package has %d files, want 2 (lib.go + in-package test)", len(p.Files))
		}
	}
}

// TestLoaderImportPathDirective pins SingleFile's //lint:importpath
// override, which the scope-sensitive fixtures (clock-taint) rely on.
func TestLoaderImportPathDirective(t *testing.T) {
	pkg, err := lint.NewLoader(".").SingleFile(filepath.Join("testdata", "clocktaint_bad.go"))
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Path != "fixture/internal/fl/clocktaint" {
		t.Errorf("import path %q, want the //lint:importpath override", pkg.Path)
	}
	pkg, err = lint.NewLoader(".").SingleFile(filepath.Join("testdata", "wallclock_bad.go"))
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Path != "fixture/wallclock_bad.go" {
		t.Errorf("import path %q, want the synthetic default", pkg.Path)
	}
}

// TestModuleRootOutsideModule pins ModuleRoot's failure outside any module.
func TestModuleRootOutsideModule(t *testing.T) {
	dir := t.TempDir() // no go.mod anywhere above (tmp dirs are module-free)
	if root, err := lint.ModuleRoot(dir); err == nil && root != "" {
		// Some environments place tmp under a module; only assert when the
		// lookup actually failed to find one.
		t.Skipf("temp dir unexpectedly inside module %s", root)
	}
}
