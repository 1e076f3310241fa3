package analysis

import (
	"go/ast"
	"go/types"
)

// ErrSink bans silently discarded error returns outside _test.go. In a
// pipeline whose outputs are binary maps and orientation files, a
// swallowed write or close error means a truncated dataset that the
// next refinement cycle happily consumes — the failure surfaces as
// "wrong structure", not as an I/O error. Both sink forms are flagged:
// a call used as a bare statement and an error result assigned to the
// blank identifier. Deliberate discards must say why via
// //replint:allow errsink <reason>.
//
// Pragmatic exclusions (these cannot fail meaningfully): fmt.Print*
// to standard output, fmt.Fprint* whose writer is os.Stdout/os.Stderr,
// and the never-failing in-memory writers bytes.Buffer and
// strings.Builder. Deferred calls are also skipped — `defer f.Close()`
// on read paths is accepted idiom; write paths should check Close
// explicitly (see the -events-out write in cmd/refined for the pattern).
var ErrSink = &Analyzer{
	Name: "errsink",
	Doc: "error returns may not be silently discarded outside _test.go; " +
		"check them, or suppress with a written reason",
	Run: runErrSink,
}

func runErrSink(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		info := pkg.Info
		for _, file := range pkg.Files {
			if isTestFile(pass.Fset, file) {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.DeferStmt, *ast.GoStmt:
					return false
				case *ast.ExprStmt:
					call, ok := s.X.(*ast.CallExpr)
					if !ok {
						return true
					}
					if errsinkExcluded(info, call) {
						return true
					}
					if errorResultCount(info, call) > 0 {
						pass.Reportf(call.Pos(), "%s returns an error that is discarded", callName(call))
					}
				case *ast.AssignStmt:
					checkBlankErrAssign(pass, info, s)
				}
				return true
			})
		}
	}
}

// checkBlankErrAssign flags `_`-assignments of error results, for both
// `_ = f()` and `n, _ := f()` shapes.
func checkBlankErrAssign(pass *Pass, info *types.Info, as *ast.AssignStmt) {
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// Multi-value call: align blanks with tuple positions.
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || errsinkExcluded(info, call) {
			return
		}
		tuple, ok := info.Types[call].Type.(*types.Tuple)
		if !ok || tuple.Len() != len(as.Lhs) {
			return
		}
		for i, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" && isErrorType(tuple.At(i).Type()) {
				pass.Reportf(id.Pos(), "error result of %s assigned to _", callName(call))
			}
		}
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" || i >= len(as.Rhs) {
			continue
		}
		call, ok := as.Rhs[i].(*ast.CallExpr)
		if !ok || errsinkExcluded(info, call) {
			continue
		}
		if tv, ok := info.Types[call]; ok && isErrorType(tv.Type) {
			pass.Reportf(id.Pos(), "error result of %s assigned to _", callName(call))
		}
	}
}

// errorResultCount returns how many results of the call are of type
// error.
func errorResultCount(info *types.Info, call *ast.CallExpr) int {
	tv, ok := info.Types[call]
	if !ok {
		return 0
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		n := 0
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				n++
			}
		}
		return n
	default:
		if isErrorType(t) {
			return 1
		}
	}
	return 0
}

var errorIface = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return types.Identical(t, errorIface)
}

// errsinkExcluded reports calls whose error is conventionally
// meaningless.
func errsinkExcluded(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Printf", "Println":
			return true
		case "Fprint", "Fprintf", "Fprintln":
			return len(call.Args) > 0 && isStdStream(info, call.Args[0])
		}
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok && named.Obj().Pkg() != nil {
			full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
			if full == "bytes.Buffer" || full == "strings.Builder" {
				return true
			}
		}
	}
	return false
}

// isStdStream matches the expressions os.Stdout and os.Stderr.
func isStdStream(info *types.Info, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "os" {
		return false
	}
	return obj.Name() == "Stdout" || obj.Name() == "Stderr"
}

// callName renders a compact name for the called function.
func callName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if x, ok := f.X.(*ast.Ident); ok {
			return x.Name + "." + f.Sel.Name
		}
		return f.Sel.Name
	}
	return "call"
}
