package analysis

import (
	"go/ast"
	"go/types"
)

// CtxLeak flags goroutines that cannot be shut down. PR 5 fixed this
// class by hand — RefineStream's stage goroutines learned to abort
// between views when the job context is cancelled — and the daemon's
// graceful-drain contract depends on every long-lived goroutine in the
// service and execution layers (internal/serve, internal/pool,
// internal/cluster, internal/parfft) having *some* termination path.
//
// A `go` statement in a scoped package is a finding when the launched
// function has no cancellation path:
//
//   - it is joined in the launching function (a sync.WaitGroup.Wait in
//     the same declaration) — the bounded fan-out/fan-in shape of
//     internal/pool — or
//   - it, or any function it statically reaches through the call
//     graph, receives from a channel (<-ch, range over a channel, any
//     select) or consults a context.Context (Done/Err/Deadline/Value
//     method calls) — closing the feeding channel or cancelling the
//     context terminates it.
//
// Everything else is a goroutine that outlives its job: it leaks on
// shutdown and holds its captures live. `go` statements whose callee
// cannot be resolved statically (interface methods, function-typed
// parameters) are skipped rather than guessed at.
var CtxLeak = &Analyzer{
	Name: "ctxleak",
	Doc: "goroutines in service/execution packages must be cancellable: joined by a " +
		"WaitGroup in the launcher, or (transitively) receiving from a channel or a context",
	Run: runCtxLeak,
}

func runCtxLeak(pass *Pass) {
	g := pass.Facts.Graph

	// cancellable memoizes, per declared function, whether the
	// function or anything it reaches has a termination construct.
	memo := map[types.Object]bool{}
	var cancellableNode func(obj types.Object) bool
	cancellableNode = func(obj types.Object) bool {
		if v, ok := memo[obj]; ok {
			return v
		}
		n := g.Nodes[obj]
		if n == nil {
			return false
		}
		memo[obj] = false // cycle-safe default while exploring
		if hasCancelConstruct(n.Pkg.Info, n.Decl.Body) {
			memo[obj] = true
			return true
		}
		for _, e := range n.Out {
			if cancellableNode(e.Callee) {
				memo[obj] = true
				return true
			}
		}
		return memo[obj]
	}

	for _, pkg := range pass.Pkgs {
		if !pass.Config.matches(pass.Config.ConcurrencyPaths, pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			if isTestFile(pass.Fset, file) {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				fd := enclosingFuncDecl(file, gs.Pos())
				if fd != nil && joinsWaitGroup(pkg.Info, fd) {
					return true
				}
				var single map[types.Object]types.Object
				if fd != nil {
					single = singleAssignFuncLocals(pkg.Info, fd)
				}
				launchedOK, resolved := launchCancellable(pkg, gs, single, cancellableNode)
				if !resolved || launchedOK {
					return true
				}
				pass.Reportf(gs.Pos(),
					"goroutine has no cancellation path: %s neither receives from a channel nor reads a context, and the launcher never joins it; it outlives shutdown",
					launchName(gs.Call))
				return true
			})
		}
	}
}

// launchCancellable inspects the launched callee of a go statement.
// The second result is false when the callee cannot be resolved.
func launchCancellable(pkg *Package, gs *ast.GoStmt, single map[types.Object]types.Object, cancellableNode func(types.Object) bool) (ok, resolved bool) {
	if lit, isLit := gs.Call.Fun.(*ast.FuncLit); isLit {
		if hasCancelConstruct(pkg.Info, lit.Body) {
			return true, true
		}
		// Calls made inside the literal may delegate the wait.
		found := false
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			call, isCall := m.(*ast.CallExpr)
			if !isCall || found {
				return !found
			}
			if t := resolveCallee(pkg.Info, call.Fun, single); t != nil && cancellableNode(t) {
				found = true
			}
			return !found
		})
		return found, true
	}
	t := resolveCallee(pkg.Info, gs.Call.Fun, single)
	if t == nil {
		return false, false
	}
	return cancellableNode(t), true
}

// hasCancelConstruct scans a body for any construct that lets the
// goroutine observe shutdown: a channel receive, a range over a
// channel, a select, or a context.Context method call.
func hasCancelConstruct(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch e := n.(type) {
		case *ast.UnaryExpr:
			if e.Op.String() == "<-" {
				found = true
			}
		case *ast.SelectStmt:
			found = true
		case *ast.RangeStmt:
			if tv, ok := info.Types[e.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[e]; ok && sel.Kind() == types.MethodVal {
				if named, okN := sel.Recv().(*types.Named); okN {
					o := named.Obj()
					if o.Pkg() != nil && o.Pkg().Path() == "context" && o.Name() == "Context" {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// joinsWaitGroup reports whether fd calls (*sync.WaitGroup).Wait —
// the launcher-side join that bounds its goroutines' lifetime.
func joinsWaitGroup(info *types.Info, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Wait" {
			return true
		}
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.FullName() == "(*sync.WaitGroup).Wait" {
			found = true
		}
		return !found
	})
	return found
}

// launchName renders the launched callee for the report.
func launchName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.FuncLit:
		return "the goroutine body"
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if x, ok := f.X.(*ast.Ident); ok {
			return x.Name + "." + f.Sel.Name
		}
		return f.Sel.Name
	}
	return "the launched function"
}
