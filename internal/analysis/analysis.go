// Package analysis is the project lint suite behind cmd/replint: a
// stdlib-only static-analysis driver (go/parser + go/types) that
// mechanically enforces the invariants the reproduction's correctness
// rests on but no compiler checks — simulated-clock determinism,
// oracle/production separation, reproducible accumulation order,
// allocation-free hot kernels, and checked errors.
//
// Since PR 8 the suite is interprocedural: a whole-module call graph
// (see callgraph.go) resolves static call edges, and the contract
// analyzers propagate their properties along it — a hot path that
// calls an allocating helper, or a production path that reaches an
// oracle through one level of indirection, is a finding with the call
// chain printed.
//
// Registration tags (written as directive comments on declarations):
//
//	//repro:oracle   — reference implementation kept only for
//	                   equivalence tests; production code must not
//	                   call it, directly or transitively
//	                   (analyzer: oracleguard).
//	//repro:hotpath  — allocation-free kernel; hotpathalloc rejects
//	                   constructs that allocate per call, in the
//	                   tagged function and in everything it reaches.
//
// Suppressions: any finding can be waived with a comment on the same
// line or the line above, carrying a written reason:
//
//	//replint:allow <analyzer> <reason...>
//
// A suppression without a reason is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Run is invoked once per
// module with a Pass holding every loaded package, so analyzers are
// free to combine per-file syntax checks with whole-module call-graph
// queries.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Finding is one reported violation.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Config scopes the package-specific analyzers. Path matching is by
// substring, so fixture trees can opt in by mirroring the production
// directory names.
type Config struct {
	// SimclockPaths are the packages where wall-clock time and global
	// randomness are banned (the simulated clock and seeded RNGs are
	// the only admissible sources).
	SimclockPaths []string
	// NumericPaths are the packages whose floating-point accumulation
	// order must be reproducible, where map iteration may not feed
	// sums, appends or channel sends.
	NumericPaths []string
}

// DefaultConfig returns the production scoping of the suite.
func DefaultConfig() *Config {
	return &Config{
		SimclockPaths: []string{"internal/parfft", "internal/cluster", "internal/core", "internal/serve", "internal/cycle", "internal/workload"},
		NumericPaths: []string{
			"internal/fft", "internal/fourier", "internal/core", "internal/parfft",
			"internal/cluster", "internal/reconstruct", "internal/fsc", "internal/brick",
			"internal/volume", "internal/geom", "internal/symmetry", "internal/workload",
			"internal/cycle",
		},
	}
}

func (c *Config) matches(paths []string, pkgPath string) bool {
	for _, p := range paths {
		if strings.Contains(pkgPath, p) {
			return true
		}
	}
	return false
}

// Facts is the whole-program state shared by all analyzers: which
// objects are registered oracles, which functions are declared hot
// paths, and the module call graph the interprocedural analyzers
// propagate those properties along.
type Facts struct {
	// Oracle maps a declared object to true when its declaration
	// carries //repro:oracle.
	Oracle map[types.Object]bool
	// Hotpath holds the *ast.FuncDecl of every //repro:hotpath
	// function, keyed by its object.
	Hotpath map[types.Object]*ast.FuncDecl
	// OracleDecls maps each oracle-tagged FuncDecl back to its object,
	// so oracleguard can permit oracle→oracle references.
	OracleDecls map[*ast.FuncDecl]types.Object
	// Graph is the whole-module static call graph.
	Graph *CallGraph
}

// CollectFacts scans every package for registration tags and builds
// the call graph.
func CollectFacts(pkgs []*Package) *Facts {
	f := &Facts{
		Oracle:      map[types.Object]bool{},
		Hotpath:     map[types.Object]*ast.FuncDecl{},
		OracleDecls: map[*ast.FuncDecl]types.Object{},
	}
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				obj := p.Info.Defs[fd.Name]
				if obj == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					switch {
					case strings.HasPrefix(c.Text, "//repro:oracle"):
						f.Oracle[obj] = true
						f.OracleDecls[fd] = obj
					case strings.HasPrefix(c.Text, "//repro:hotpath"):
						f.Hotpath[obj] = fd
					}
				}
			}
		}
	}
	f.Graph = BuildCallGraph(pkgs)
	return f
}

// Pass is the per-analyzer invocation context: one call per module,
// with every loaded package visible.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package
	Facts    *Facts
	Config   *Config
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// registry is the full suite; All sorts it by name so registration
// order (spread over several files) never leaks into -list output or
// run order.
var registry = []*Analyzer{
	Simclock, OracleGuard, MapOrder, HotpathAlloc, ErrSink,
}

// All returns the suite sorted by analyzer name — deterministic
// regardless of which file registered what.
func All() []*Analyzer {
	out := make([]*Analyzer, len(registry))
	copy(out, registry)
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// suppression is one parsed //replint:allow comment.
type suppression struct {
	line     int
	analyzer string
	reason   string
	pos      token.Pos
	used     bool
}

const allowPrefix = "//replint:allow"

// collectSuppressions parses the allow-comments of one file.
func collectSuppressions(fset *token.FileSet, file *ast.File) []*suppression {
	var out []*suppression
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, allowPrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
			name, reason, _ := strings.Cut(rest, " ")
			out = append(out, &suppression{
				line:     fset.Position(c.Pos()).Line,
				analyzer: name,
				reason:   strings.TrimSpace(reason),
				pos:      c.Pos(),
			})
		}
	}
	return out
}

// Run executes every analyzer over the module and returns the
// surviving findings sorted by position. Suppressed findings are
// dropped; malformed suppressions (no analyzer name or no reason) are
// reported as findings of the pseudo-analyzer "suppression".
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer, cfg *Config) []Finding {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	facts := CollectFacts(pkgs)

	var raw []Finding
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Pkgs: pkgs, Facts: facts, Config: cfg, findings: &raw}
		a.Run(pass)
	}

	// Index suppressions by file and line.
	type fileLine struct {
		file string
		line int
	}
	sups := map[fileLine][]*suppression{}
	var malformed []Finding
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, s := range collectSuppressions(fset, file) {
				pos := fset.Position(s.pos)
				if s.analyzer == "" || s.reason == "" {
					malformed = append(malformed, Finding{
						Pos:      pos,
						Analyzer: "suppression",
						Message:  "malformed //replint:allow: want \"//replint:allow <analyzer> <reason>\"",
					})
					continue
				}
				key := fileLine{pos.Filename, s.line}
				sups[key] = append(sups[key], s)
			}
		}
	}

	var out []Finding
	for _, f := range raw {
		suppressed := false
		// A suppression covers findings on its own line (trailing
		// comment) and on the following line (comment above).
		for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
			for _, s := range sups[fileLine{f.Pos.Filename, line}] {
				if s.analyzer == f.Analyzer {
					s.used = true
					suppressed = true
				}
			}
		}
		if !suppressed {
			out = append(out, f)
		}
	}
	out = append(out, malformed...)
	SortFindings(out)
	return out
}

// SortFindings orders findings by file, line, column, analyzer, then
// message — the canonical order every replint output mode uses.
func SortFindings(out []Finding) {
	sort.Slice(out, func(a, b int) bool {
		fa, fb := out[a], out[b]
		if fa.Pos.Filename != fb.Pos.Filename {
			return fa.Pos.Filename < fb.Pos.Filename
		}
		if fa.Pos.Line != fb.Pos.Line {
			return fa.Pos.Line < fb.Pos.Line
		}
		if fa.Pos.Column != fb.Pos.Column {
			return fa.Pos.Column < fb.Pos.Column
		}
		if fa.Analyzer != fb.Analyzer {
			return fa.Analyzer < fb.Analyzer
		}
		return fa.Message < fb.Message
	})
}

// isTestFile reports whether the file's name ends in _test.go. The
// loader never parses test files, but fixture trees may name files to
// simulate them, and analyzers use this to honour the exemption.
func isTestFile(fset *token.FileSet, file *ast.File) bool {
	return strings.HasSuffix(fset.Position(file.Pos()).Filename, "_test.go")
}

// enclosingFuncDecl returns the top-level FuncDecl containing pos, if
// any.
func enclosingFuncDecl(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}
