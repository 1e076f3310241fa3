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
// production at all). An
// oracle that leaks back into a production call chain silently
// forfeits the speedup and, worse, stops being an independent check.
// A declaration opts in with a //repro:oracle directive; references
// are then legal only from _test.go files or from other oracle-tagged
// declarations.
//
// The guard is transitive: a production function from which an oracle
// is reachable through the module call graph — even when every direct
// reference along the way carries its own reasoned waiver — is
// reported with the chain printed, at the call site of its first hop.
// Reaching an oracle through a deliberately waived helper is a
// decision each caller must re-state, not inherit.
var OracleGuard = &Analyzer{
	Name: "oracleguard",
	Doc: "declarations tagged //repro:oracle are test-only reference implementations; " +
		"production code must not reach them, directly or through the call graph",
	Run: runOracleGuard,
}

func runOracleGuard(pass *Pass) {
	// Direct references, reported at the identifier as always.
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			if isTestFile(pass.Fset, file) {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := pkg.Info.Uses[id]
				if obj == nil || !pass.Facts.Oracle[obj] {
					return true
				}
				if fd := enclosingFuncDecl(file, id.Pos()); fd != nil {
					if _, tagged := pass.Facts.OracleDecls[fd]; tagged {
						return true // oracles may build on each other
					}
				}
				pass.Reportf(id.Pos(), "%s is a //repro:oracle reference implementation; only _test.go files and other oracles may use it", obj.Name())
				return true
			})
		}
	}

	// Transitive reachability: production functions whose call graph
	// reaches an oracle in two or more hops. One-hop reaches are the
	// direct references above; re-reporting them here would double
	// every finding and defeat site-level suppression.
	g := pass.Facts.Graph
	for _, node := range g.sortedNodes() {
		if pass.Facts.Oracle[node.Obj] {
			continue
		}
		if isTestFile(pass.Fset, fileOf(node.Pkg, node.Decl.Pos())) {
			continue
		}
		// Oracles are barriers: a chain that tunnels through one
		// oracle to another adds nothing over the finding (or waiver)
		// at the first oracle reference.
		pred := g.reachableStopping(node.Obj, func(o types.Object) bool { return pass.Facts.Oracle[o] })
		best := oracleChain(pass, pred, node.Obj)
		if len(best) < 2 {
			continue
		}
		pass.Reportf(best[0].Site,
			"%s transitively reaches //repro:oracle %s (call chain %s); only _test.go files and other oracles may",
			FuncName(node.Obj), FuncName(best[len(best)-1].Callee), FormatChain(node.Obj, best))
	}
}

// oracleChain returns the shortest chain from root to any reachable
// oracle (BFS predecessor maps encode shortest paths), preferring the
// earliest-declared oracle on ties so output is deterministic.
func oracleChain(pass *Pass, pred map[types.Object]CallEdge, root types.Object) []CallEdge {
	var best []CallEdge
	for _, n := range pass.Facts.Graph.sortedNodes() {
		if !pass.Facts.Oracle[n.Obj] {
			continue
		}
		if _, reached := pred[n.Obj]; !reached {
			continue
		}
		c := Chain(pred, root, n.Obj)
		if c == nil {
			continue
		}
		if best == nil || len(c) < len(best) {
			best = c
		}
	}
	return best
}
