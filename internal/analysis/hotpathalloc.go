package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// HotpathAlloc enforces the 0-alloc contract of the matching kernels:
// a function tagged //repro:hotpath sits inside the per-candidate or
// per-coefficient loops (the >99% of wall time the paper attributes to
// matching), where a single per-call allocation multiplies into
// millions of allocations per refinement pass. Within a tagged
// function the analyzer rejects
//
//   - append whose destination was not made with an explicit capacity
//     in the same function (growth ⇒ realloc+copy in the loop),
//   - make with a length, capacity or size hint that is not a constant
//     (always a heap allocation, once per call), and new,
//   - composite literals that escape (&T{...}) and slice/map literals,
//   - numeric slices passed to interface parameters (the conversion
//     boxes the slice header on the heap — the classic fmt leak),
//   - function literals capturing loop variables (each iteration
//     allocates a closure),
//   - obs event emission (obs.Emit or EventLog.Emit): events narrate
//     job lifecycle edges at the level/job layer — inside a
//     per-candidate kernel the enabled path would build a record and
//     take the ring lock millions of times per pass.
//
// The contract is transitive: the same checks run over every function
// statically reachable from a tagged root through the module call
// graph, and an allocating callee is reported at the call site that
// pulls it into the hot path, with the full chain from the root
// printed. Amortized-growth scratch that a human has verified reaches
// a steady state is waived with //replint:allow hotpathalloc <reason>
// — at the construct inside a tagged function, or at the reported
// call site for a callee.
var HotpathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: "//repro:hotpath functions — and every function they transitively call — " +
		"may not allocate per call: no growing append, no run-time-sized make, no new, " +
		"no escaping composite literals, " +
		"no numeric-slice→interface conversions, no closures over loop variables, " +
		"no obs event emission",
	Run: runHotpathAlloc,
}

// allocSite is one allocating construct found inside a function body.
type allocSite struct {
	pos token.Pos
	msg string
}

func runHotpathAlloc(pass *Pass) {
	// Tagged functions: report each construct in place, exactly as the
	// intraprocedural suite always has.
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			if isTestFile(pass.Fset, file) {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if _, hot := pass.Facts.Hotpath[pkg.Info.Defs[fd.Name]]; !hot {
					continue
				}
				for _, s := range allocSites(pkg.Info, fd) {
					pass.Reportf(s.pos, "%s", s.msg)
				}
			}
		}
	}

	// Transitive closure: walk the call graph from every tagged root
	// and report allocating callees at the call site that reaches
	// them. allocs caches per-function construct scans; reported
	// dedupes call sites shared by several roots.
	g := pass.Facts.Graph
	allocs := map[types.Object][]allocSite{}
	allocsOf := func(n *CallNode) []allocSite {
		if s, ok := allocs[n.Obj]; ok {
			return s
		}
		var s []allocSite
		if !isTestFile(pass.Fset, fileOf(n.Pkg, n.Decl.Pos())) {
			s = allocSites(n.Pkg.Info, n.Decl)
		}
		allocs[n.Obj] = s
		return s
	}
	reported := map[token.Pos]bool{}
	for _, root := range g.sortedNodes() {
		if _, hot := pass.Facts.Hotpath[root.Obj]; !hot {
			continue
		}
		// Nested tagged kernels are barriers: their own closure is
		// covered when they are the root, so chains stay attributed to
		// the nearest tagged ancestor.
		pred := g.reachableStopping(root.Obj, func(o types.Object) bool {
			_, tagged := pass.Facts.Hotpath[o]
			return tagged
		})
		// Visit reached functions in deterministic (position) order.
		for _, n := range g.sortedNodes() {
			edge, reached := pred[n.Obj]
			if !reached || n.Obj == root.Obj {
				continue
			}
			if _, tagged := pass.Facts.Hotpath[n.Obj]; tagged {
				continue // checked in place as its own root
			}
			sites := allocsOf(n)
			if len(sites) == 0 || reported[edge.Site] {
				continue
			}
			reported[edge.Site] = true
			chain := Chain(pred, root.Obj, n.Obj)
			first := pass.Fset.Position(sites[0].pos)
			pass.Reportf(edge.Site,
				"%s allocates per call inside a //repro:hotpath path (call chain %s): %s at %s:%d",
				FuncName(n.Obj), FormatChain(root.Obj, chain), sites[0].msg, filepath.Base(first.Filename), first.Line)
		}
	}
}

// fileOf returns the *ast.File of pkg containing pos.
func fileOf(pkg *Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.Pos() <= pos && pos <= f.End() {
			return f
		}
	}
	return nil
}

// allocSites scans one function body for the per-call-allocation
// constructs the hot-path contract bans.
func allocSites(info *types.Info, fd *ast.FuncDecl) []allocSite {
	var out []allocSite
	report := func(pos token.Pos, msg string) {
		out = append(out, allocSite{pos: pos, msg: msg})
	}
	capped := cappedLocals(info, fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			if isBuiltinAppend(info, e) && len(e.Args) > 0 {
				if obj := sliceRootObject(info, e.Args[0]); obj == nil || !capped[obj] {
					report(e.Pos(), "append in hot path without a same-function make(..., cap): growth reallocates inside the kernel loop")
				}
			}
			switch builtinName(info, e) {
			case "make":
				for _, size := range e.Args[1:] {
					if tv, ok := info.Types[size]; ok && tv.Value == nil {
						report(e.Pos(), "make with a run-time size allocates on every call in a hot path; presize the buffer in setup or worker scratch")
						break
					}
				}
			case "new":
				report(e.Pos(), "new allocates on every call in a hot path; hoist the value to setup or scratch state")
			}
			if obj := calleeObject(info, e); obj != nil && obj.Name() == "Emit" &&
				obj.Pkg() != nil && obj.Pkg().Name() == "obs" {
				report(e.Pos(), "obs event emission in a hot path: events narrate job lifecycle edges, not kernel loops — lift the Emit to the level/job layer")
			}
			checkInterfaceArgs(info, e, report)
		case *ast.UnaryExpr:
			if e.Op.String() == "&" {
				if _, ok := e.X.(*ast.CompositeLit); ok {
					report(e.Pos(), "&composite literal escapes to the heap in a hot path")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[e]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					report(e.Pos(), "slice/map literal allocates in a hot path; hoist it to setup or scratch state")
				}
			}
		case *ast.ForStmt:
			checkLoopClosures(info, loopVarObjects(info, e.Init), e.Body, report)
		case *ast.RangeStmt:
			checkLoopClosures(info, rangeVarObjects(info, e), e.Body, report)
		}
		return true
	})
	return out
}

// cappedLocals collects the objects of local slices created by a
// three-argument make anywhere in the function — the only destinations
// append may grow into without tripping the analyzer.
func cappedLocals(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || len(call.Args) != 3 {
				continue
			}
			if builtinName(info, call) == "make" {
				if lid, ok := as.Lhs[i].(*ast.Ident); ok {
					if obj := info.Defs[lid]; obj != nil {
						out[obj] = true
					} else if obj := info.Uses[lid]; obj != nil {
						out[obj] = true
					}
				}
			}
		}
		return true
	})
	return out
}

// builtinName returns the name of the builtin a call invokes ("make",
// "new", …), or "" when the callee is anything else.
func builtinName(info *types.Info, call *ast.CallExpr) string {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// calleeObject resolves the object a call expression invokes: a plain
// identifier (package function) or the selected method/function of a
// selector expression.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return info.Uses[f]
	case *ast.SelectorExpr:
		return info.Uses[f.Sel]
	}
	return nil
}

// sliceRootObject resolves the identifier at the root of an append
// destination: plain `x` or resliced `x[:0]`.
func sliceRootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return info.Uses[v]
		case *ast.SliceExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// checkInterfaceArgs flags numeric slices converted to interface
// parameters (incl. variadic ...interface{}).
func checkInterfaceArgs(info *types.Info, call *ast.CallExpr, report func(token.Pos, string)) {
	ftv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := ftv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		atv, ok := info.Types[arg]
		if !ok {
			continue
		}
		if sl, ok := atv.Type.Underlying().(*types.Slice); ok && isFloatOrComplex(sl.Elem()) {
			report(arg.Pos(), "numeric slice passed to interface parameter boxes the slice header on the heap in a hot path")
		}
	}
}

func loopVarObjects(info *types.Info, init ast.Stmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	if as, ok := init.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	return out
}

func rangeVarObjects(info *types.Info, rs *ast.RangeStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// checkLoopClosures reports function literals inside a loop body that
// capture that loop's variables.
func checkLoopClosures(info *types.Info, loopVars map[types.Object]bool, body *ast.BlockStmt, report func(token.Pos, string)) {
	if len(loopVars) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		fl, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		captures := false
		ast.Inspect(fl.Body, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && loopVars[info.Uses[id]] {
				captures = true
			}
			return !captures
		})
		if captures {
			report(fl.Pos(), "closure over loop variable allocates every iteration in a hot path")
		}
		return false // nested literals are covered by the outer report
	})
}
