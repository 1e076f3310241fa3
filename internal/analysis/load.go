package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the tree under
// analysis.
type Package struct {
	// Path is the import path ("repro/internal/core", or the
	// testdata-relative path for fixture packages).
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks every package of a module (or fixture
// tree) using only the standard library: local import paths resolve to
// module directories, everything else falls through to the stdlib
// source importer. Test files are not loaded — the invariants replint
// enforces concern production code, and every analyzer exempts
// _test.go by construction — and neither are files whose build
// constraints exclude them from the host's default build.
type Loader struct {
	Fset *token.FileSet

	root    string            // absolute root directory of the tree
	base    string            // import path corresponding to root
	dirs    map[string]string // import path -> absolute dir
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
	failed  map[string]error // packages that did not load, by path
	diags   []LoadDiagnostic
}

// LoadDiagnostic records one package the loader had to skip — a parse
// or type-check failure — so the caller can surface it instead of
// analyzing a partial module as if it were clean. Pos carries the
// file:line of the first underlying error when one is known.
type LoadDiagnostic struct {
	Path string
	Pos  token.Position
	Msg  string
}

func (d LoadDiagnostic) String() string {
	if d.Pos.Filename != "" {
		return fmt.Sprintf("%s:%d:%d: package %s skipped: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Path, d.Msg)
	}
	return fmt.Sprintf("package %s skipped: %s", d.Path, d.Msg)
}

// NewLoader prepares a loader for the tree rooted at root, whose
// packages have import paths base + "/" + relative-dir (or just the
// relative dir when base is empty, as for test fixtures).
func NewLoader(root, base string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:    fset,
		root:    abs,
		base:    base,
		dirs:    map[string]string{},
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
		failed:  map[string]error{},
	}
	if err := l.discover(); err != nil {
		return nil, err
	}
	return l, nil
}

// ModulePath reads the module path from the go.mod at root. It exists
// so callers can map a directory to the import-path namespace without
// invoking the go tool.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s/go.mod", root)
}

// discover walks the tree and records every directory holding
// non-test Go files as a package.
func (l *Loader) discover() error {
	return filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		hasGo := false
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				hasGo = true
				break
			}
		}
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		ip := filepath.ToSlash(rel)
		if ip == "." {
			ip = ""
		}
		switch {
		case l.base != "" && ip != "":
			ip = l.base + "/" + ip
		case l.base != "":
			ip = l.base
		}
		if ip == "" {
			return nil // rootless fixture files directly under testdata/src
		}
		l.dirs[ip] = path
		return nil
	})
}

// Paths returns the discovered package paths, sorted.
func (l *Loader) Paths() []string {
	out := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// LoadAll loads every discovered package and returns the ones that
// parsed and type-checked, sorted by import path. Packages that fail
// to load are NOT silent: each is recorded as a LoadDiagnostic
// (retrievable via Diagnostics, convertible to findings with
// DiagnosticFindings) so callers can report the partial-module
// analysis instead of pretending the skipped code was clean.
func (l *Loader) LoadAll() ([]*Package, error) {
	for _, p := range l.Paths() {
		if _, err := l.load(p); err != nil {
			continue // recorded as a diagnostic by load
		}
	}
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Path < out[b].Path })
	return out, nil
}

// Diagnostics returns one entry per package the loader skipped,
// sorted by import path.
func (l *Loader) Diagnostics() []LoadDiagnostic {
	out := make([]LoadDiagnostic, len(l.diags))
	copy(out, l.diags)
	sort.Slice(out, func(a, b int) bool { return out[a].Path < out[b].Path })
	return out
}

// DiagnosticFindings converts load diagnostics into findings of the
// pseudo-analyzer "load", so replint prints them beside the analyzer
// findings and a partial analysis can never pass as a clean one.
func DiagnosticFindings(diags []LoadDiagnostic) []Finding {
	out := make([]Finding, 0, len(diags))
	for _, d := range diags {
		out = append(out, Finding{
			Pos:      d.Pos,
			Analyzer: "load",
			Message:  fmt.Sprintf("package %s skipped (analysis is partial): %s", d.Path, d.Msg),
		})
	}
	return out
}

// recordFailure notes a skipped package exactly once, extracting the
// first file:line the underlying error points at.
func (l *Loader) recordFailure(path string, err error) {
	if _, dup := l.failed[path]; dup {
		return
	}
	l.failed[path] = err
	d := LoadDiagnostic{Path: path, Msg: err.Error()}
	var list scanner.ErrorList
	var terr types.Error
	switch {
	case errors.As(err, &list) && len(list) > 0:
		d.Pos = list[0].Pos
		d.Msg = list[0].Msg
	case errors.As(err, &terr):
		d.Pos = terr.Fset.Position(terr.Pos)
		d.Msg = terr.Msg
	}
	l.diags = append(l.diags, d)
}

// Import implements types.Importer: local paths load (and cache) from
// the tree, everything else delegates to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; ok {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

func (l *Loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if err, ok := l.failed[path]; ok {
		return nil, err
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirs[path]
	ents, err := os.ReadDir(dir)
	if err != nil {
		l.recordFailure(path, err)
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			// Only the files the go command would build here: a
			// package may hold per-architecture variants of one
			// declaration (//go:build lines, _amd64 suffixes).
			ok, err := build.Default.MatchFile(dir, e.Name())
			if err != nil {
				l.recordFailure(path, err)
				return nil, err
			}
			if ok {
				names = append(names, e.Name())
			}
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			l.recordFailure(path, err)
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	cfg := types.Config{Importer: l}
	tpkg, err := cfg.Check(path, l.Fset, files, info)
	if err != nil {
		err = fmt.Errorf("analysis: type-checking %s: %w", path, err)
		l.recordFailure(path, err)
		return nil, err
	}
	p := &Package{Path: path, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// FindModuleRoot walks upward from dir to the nearest directory
// containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		abs = parent
	}
}
