package analysis

import (
	"go/ast"
	"go/types"
)

// OracleGuard keeps the reference implementations ("oracles") out of
// production code. The scalar-sampling path was replaced early with a
// fused equivalent, but the original — VolumeDFT.Sample — stayed as
// the ground truth that equivalence tests compare against; later
// kernels added their own (Refiner.ExhaustiveRefine, the serial
// reconstructor, and core's newFullDiscMatcher, the pre-half-band
// comparison band, which lives in a _test.go file and so cannot reach
// production at all). An oracle that leaks back into production
// silently forfeits the speedup and, worse, stops being an independent
// check. A declaration opts in with a //repro:oracle directive;
// references are then legal only from _test.go files or from other
// oracle-tagged declarations.
//
// Every production reference is reported where it is written, so a
// production function cannot reach an oracle through a helper without
// that helper's reference being a finding of its own.
var OracleGuard = &Analyzer{
	Name: "oracleguard",
	Doc: "declarations tagged //repro:oracle are test-only reference implementations; " +
		"production code must not reference them",
	Run: runOracleGuard,
}

func runOracleGuard(pass *Pass) {
	oracle := map[types.Object]bool{}
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && hasDirective(fd, "//repro:oracle") {
					oracle[pkg.Info.Defs[fd.Name]] = true
				}
			}
		}
	}

	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			if isTestFile(pass.Fset, file) {
				continue
			}
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && hasDirective(fd, "//repro:oracle") {
					continue // oracles may build on each other
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if obj := pkg.Info.Uses[id]; obj != nil && oracle[obj] {
						pass.Reportf(id.Pos(), "%s is a //repro:oracle reference implementation; only _test.go files and other oracles may use it", obj.Name())
					}
					return true
				})
			}
		}
	}
}
