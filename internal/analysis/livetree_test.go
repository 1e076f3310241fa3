package analysis

import (
	"go/parser"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// loadLiveTree loads the real module — the same invocation as
// `go run ./cmd/replint ./...`.
func loadLiveTree(t *testing.T) *Loader {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	modPath, err := ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root, modPath)
	if err != nil {
		t.Fatal(err)
	}
	return loader
}

// TestLiveTreeClean runs the full suite over the real module and
// requires it to come back empty — load diagnostics included, so a
// package that stops type-checking fails this test rather than
// silently shrinking the analyzed tree. This is the gate that keeps
// the production tree honest: any new violation must either be fixed
// or carry a reasoned //replint:allow before tests pass.
func TestLiveTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	loader := loadLiveTree(t)
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(loader.Fset, pkgs, All())
	findings = append(findings, DiagnosticFindings(loader.Diagnostics())...)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// unreachableAllowed names the internal packages that may exist
// without any command importing them, each with the reason it stays.
var unreachableAllowed = map[string]string{}

// TestInternalPackagesReachable holds the tree to one rule: an
// internal package exists only if some command under cmd/ imports it,
// directly or transitively, from non-test code — or it is listed in
// unreachableAllowed with the reason. A package only tests, benchmarks
// or examples reach is a second toolchain nobody runs.
func TestInternalPackagesReachable(t *testing.T) {
	// The loader's discovery pass already knows every package directory
	// (testdata and dot-directories skipped); nothing is type-checked.
	loader := loadLiveTree(t)
	module := loader.base + "/"

	// imports maps a module-relative package to the module-relative
	// packages its non-test files import.
	imports := map[string][]string{}
	for path, dir := range loader.dirs {
		pkg := strings.TrimPrefix(path, module)
		imports[pkg] = nil
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(loader.Fset, file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if rel, ok := strings.CutPrefix(p, module); ok {
					imports[pkg] = append(imports[pkg], rel)
				}
			}
		}
	}

	reached := map[string]bool{}
	var visit func(pkg string)
	visit = func(pkg string) {
		if reached[pkg] {
			return
		}
		reached[pkg] = true
		for _, imp := range imports[pkg] {
			visit(imp)
		}
	}
	for pkg := range imports {
		if strings.HasPrefix(pkg, "cmd/") {
			visit(pkg)
		}
	}
	if len(reached) == 0 {
		t.Fatal("no command packages found under cmd/")
	}

	for pkg := range imports {
		if !strings.HasPrefix(pkg, "internal/") {
			continue
		}
		_, allowed := unreachableAllowed[pkg]
		switch {
		case !reached[pkg] && !allowed:
			t.Errorf("%s is imported by no command under cmd/: delete it, or list it in unreachableAllowed with the reason it stays", pkg)
		case reached[pkg] && allowed:
			t.Errorf("%s is reachable from cmd/ again: drop its unreachableAllowed entry", pkg)
		}
	}
	for pkg := range unreachableAllowed {
		if _, ok := imports[pkg]; !ok {
			t.Errorf("unreachableAllowed lists %s, which no longer exists", pkg)
		}
	}
}
