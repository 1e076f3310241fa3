package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// MapOrder protects the bit-reproducibility of floating-point results
// (the (radius,h,k) band sort of PR 1 and the rank-ordered charging of
// PR 2 exist for exactly this): Go randomizes map iteration order, so
// a `range` over a map that feeds a float accumulation, a slice
// append, or a channel send makes the resulting float sum, slice
// layout or message order differ run to run. In numeric packages the
// fix is to iterate a sorted key slice (or collect keys
// deterministically at insert time) instead.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "in numeric packages, ranging over a map may not feed float accumulations, " +
		"slice appends or channel sends — map order is randomized; iterate sorted keys",
	Run: runMapOrder,
}

// numericPaths are the import-path fragments of the packages whose
// floating-point results must be bit-reproducible. Matching is by
// substring, so fixture trees opt in by mirroring the directory names.
var numericPaths = []string{
	"internal/fft", "internal/fourier", "internal/core", "internal/parfft",
	"internal/cluster", "internal/reconstruct", "internal/fsc", "internal/brick",
	"internal/volume", "internal/geom", "internal/symmetry", "internal/workload",
	"internal/cycle",
}

func runMapOrder(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		if !slices.ContainsFunc(numericPaths, func(p string) bool { return strings.Contains(pkg.Path, p) }) {
			continue
		}
		info := pkg.Info
		for _, file := range pkg.Files {
			if isTestFile(pass.Fset, file) {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := info.Types[rs.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				checkMapRangeBody(pass, info, rs.Body)
				return true
			})
		}
	}
}

// checkMapRangeBody reports order-sensitive operations inside the body
// of a map range.
func checkMapRangeBody(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(s.Pos(), "channel send inside a map range: receive order depends on randomized map iteration")
		case *ast.AssignStmt:
			switch s.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range s.Lhs {
					if tv, ok := info.Types[lhs]; ok && isFloatOrComplex(tv.Type) {
						pass.Reportf(s.Pos(), "float accumulation inside a map range: the sum depends on randomized map iteration order")
						break
					}
				}
			case token.ASSIGN, token.DEFINE:
				for _, rhs := range s.Rhs {
					if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(info, call) {
						pass.Reportf(s.Pos(), "slice append inside a map range: element order depends on randomized map iteration")
					}
				}
			}
		}
		return true
	})
}

func isFloatOrComplex(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsFloat|types.IsComplex) != 0
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	return builtinName(info, call) == "append"
}
