// Package analysis is the project lint suite behind cmd/replint: a
// stdlib-only static-analysis driver (go/parser + go/types) that
// mechanically enforces the invariants the reproduction's correctness
// rests on but no compiler checks — wall-clock-free internal packages,
// oracle/production separation, reproducible accumulation order,
// allocation-free hot kernels, and checked errors.
//
// Every analyzer is a syntax-and-types pass over one function at a
// time; none follows calls. What a call chain could hide is pinned at
// run time instead: the allocation tests of internal/core,
// internal/reconstruct, internal/fourier and internal/fft fail when a
// helper below a tagged kernel starts allocating (DESIGN §9).
//
// Registration tags (written as directive comments on declarations):
//
//	//repro:oracle   — reference implementation kept only for
//	                   equivalence tests; production code must not
//	                   reference it (analyzer: oracleguard).
//	//repro:hotpath  — allocation-free kernel; hotpathalloc rejects
//	                   constructs that allocate per call in the tagged
//	                   function's body.
//
// Suppressions: any finding can be waived with a comment on the same
// line or the line above, carrying a written reason:
//
//	//replint:allow <analyzer> <reason...>
//
// A suppression without a reason, or one that waives nothing, is itself
// reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Run is invoked once per
// module with a Pass holding every loaded package.
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

// Pass is the per-analyzer invocation context: one call per module,
// with every loaded package visible.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package
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
// dropped; malformed suppressions (no analyzer name or no reason) and
// stale ones (nothing on their line or the next to waive) are reported
// as findings of the pseudo-analyzer "suppression".
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Finding {
	var raw []Finding
	for _, a := range analyzers {
		a.Run(&Pass{Analyzer: a, Fset: fset, Pkgs: pkgs, findings: &raw})
	}

	// Index suppressions by file and line.
	type fileLine struct {
		file string
		line int
	}
	sups := map[fileLine][]*suppression{}
	var all []*suppression
	var out []Finding
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, s := range collectSuppressions(fset, file) {
				pos := fset.Position(s.pos)
				if s.analyzer == "" || s.reason == "" {
					out = append(out, Finding{
						Pos:      pos,
						Analyzer: "suppression",
						Message:  "malformed //replint:allow: want \"//replint:allow <analyzer> <reason>\"",
					})
					continue
				}
				key := fileLine{pos.Filename, s.line}
				sups[key] = append(sups[key], s)
				all = append(all, s)
			}
		}
	}

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
	for _, s := range all {
		if !s.used {
			out = append(out, Finding{
				Pos:      fset.Position(s.pos),
				Analyzer: "suppression",
				Message:  fmt.Sprintf("stale //replint:allow %s: no %s finding on this line or the next to waive", s.analyzer, s.analyzer),
			})
		}
	}
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

// hasDirective reports whether fd's doc comment carries the directive
// (e.g. "//repro:hotpath").
func hasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, directive) {
			return true
		}
	}
	return false
}
