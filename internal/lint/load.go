package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// Loader type-checks module packages without golang.org/x/tools: package
// metadata and compiled export data come from `go list -export` (the build
// cache — no network), the analyzed package itself is parsed from source,
// and its imports are materialized through the standard gc importer with a
// lookup function over the export-data files. In-package _test.go files
// are checked together with their package; external (package foo_test)
// test files are checked as their own package. Their importer reads the
// base, and any dependency go recompiles against it, from the export data
// of foo's test build, as go test does, so a helper that foo's in-package
// test files export resolves.
type Loader struct {
	// Dir is the directory `go list` runs in (the module root for
	// repo-wide sweeps).
	Dir string

	Fset *token.FileSet

	mu      sync.Mutex
	exports map[string]string // import path -> export data file
	imp     types.Importer
}

// NewLoader returns a Loader rooted at dir.
func NewLoader(dir string) *Loader {
	l := &Loader{Dir: dir, Fset: token.NewFileSet(), exports: map[string]string{}}
	l.imp = importer.ForCompiler(l.Fset, "gc", l.lookup)
	return l
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath   string
	Dir          string
	Export       string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Standard     bool
	DepOnly      bool
	ForTest      string
	Module       *struct{ Path string }
}

const listFields = "ImportPath,Dir,Export,GoFiles,CgoFiles,TestGoFiles,XTestGoFiles,Standard,DepOnly,ForTest,Module"

func (l *Loader) goList(args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: %v failed: %v\n%s", cmd.Args, err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// lookup serves export data to the gc importer, lazily listing packages
// (stdlib included) that the initial sweep did not cover.
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	l.mu.Lock()
	file, ok := l.exports[path]
	l.mu.Unlock()
	if !ok {
		pkgs, err := l.goList("list", "-export", "-json="+listFields, "--", path)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.ImportPath == path && p.Export != "" {
				file = p.Export
			}
		}
		if file == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		l.mu.Lock()
		l.exports[path] = file
		l.mu.Unlock()
	}
	return os.Open(file)
}

func (l *Loader) recordExports(pkgs []listPkg) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range pkgs {
		// Test variants carry bracketed import paths; only plain builds
		// feed the importer.
		if p.Export != "" && p.ForTest == "" && !strings.Contains(p.ImportPath, " ") {
			l.exports[p.ImportPath] = p.Export
		}
	}
}

// Packages loads, parses, and type-checks every package matching the go
// list patterns (default "./..."), including test files.
func (l *Loader) Packages(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-test", "-export", "-json=" + listFields, "--"}, patterns...)
	listed, err := l.goList(args...)
	if err != nil {
		return nil, err
	}
	l.recordExports(listed)
	// testBuilds maps each package under test to the export data of its
	// test build's variants ("p [foo.test]"), keyed by plain import path.
	testBuilds := map[string]map[string]string{}
	for _, p := range listed {
		path, _, variant := strings.Cut(p.ImportPath, " ")
		if !variant || p.ForTest == "" || p.Export == "" {
			continue
		}
		if testBuilds[p.ForTest] == nil {
			testBuilds[p.ForTest] = map[string]string{}
		}
		testBuilds[p.ForTest][path] = p.Export
	}

	var out []*Package
	for _, p := range listed {
		// Analyze only the packages the patterns named: not dependencies,
		// not the synthesized .test mains, not bracketed test variants
		// (their in-package test files are folded into the plain entry).
		if p.DepOnly || p.Standard || p.ForTest != "" || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		srcs := make([]string, 0, len(p.GoFiles)+len(p.CgoFiles)+len(p.TestGoFiles))
		srcs = append(srcs, p.GoFiles...)
		srcs = append(srcs, p.CgoFiles...)
		srcs = append(srcs, p.TestGoFiles...)
		if len(srcs) > 0 {
			pkg, err := l.check(p.ImportPath, p.Dir, srcs, l.imp)
			if err != nil {
				return nil, err
			}
			out = append(out, pkg)
		}
		if len(p.XTestGoFiles) > 0 {
			builds := testBuilds[p.ImportPath]
			imp := importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
				if file, ok := builds[path]; ok {
					return os.Open(file)
				}
				return l.lookup(path)
			})
			pkg, err := l.check(p.ImportPath+"_test", p.Dir, p.XTestGoFiles, imp)
			if err != nil {
				return nil, err
			}
			out = append(out, pkg)
		}
	}
	return out, nil
}

// SingleFile parses and type-checks one standalone file (the fixture
// loader for the analyzer tests). A `//lint:importpath <path>` comment
// anywhere in the file overrides the synthetic import path, letting a
// fixture pose as a deterministic-core package for the scope-sensitive
// rules (clock-taint roots on internal/fl et al.).
func (l *Loader) SingleFile(path string) (*Package, error) {
	importPath := "fixture/" + filepath.Base(path)
	if src, err := os.ReadFile(path); err == nil {
		for _, line := range strings.Split(string(src), "\n") {
			line = strings.TrimSpace(line)
			if rest, ok := strings.CutPrefix(line, "//lint:importpath "); ok {
				if p := strings.TrimSpace(rest); p != "" {
					importPath = p
				}
				break
			}
		}
	}
	return l.check(importPath, "", []string{path}, l.imp)
}

func (l *Loader) check(importPath, dir string, files []string, imp types.Importer) (*Package, error) {
	asts := make([]*ast.File, 0, len(files))
	for _, f := range files {
		name := f
		if dir != "" {
			name = filepath.Join(dir, f)
		}
		a, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %v", name, err)
		}
		asts = append(asts, a)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.Fset, asts, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v (+%d more)", importPath, typeErrs[0], len(typeErrs)-1)
	}
	return &Package{Path: importPath, Fset: l.Fset, Files: asts, Info: info, Types: tpkg}, nil
}

// ModuleRoot resolves the enclosing module's root directory from dir.
func ModuleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "list", "-m", "-f", "{{.Dir}}")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("lint: resolving module root: %v", err)
	}
	root := strings.TrimSpace(string(out))
	if root == "" {
		return "", fmt.Errorf("lint: no module found from %s", dir)
	}
	return root, nil
}
