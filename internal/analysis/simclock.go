package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Simclock enforces the determinism contract of the simulated-cluster
// packages: every duration in internal/parfft, internal/cluster,
// internal/core, internal/serve, internal/cycle and internal/workload
// (whose priceOnCluster charges Tables 1–2) must come from the
// per-rank clocks of the cluster ledger (cluster.Cluster.Clock/
// Compute/Sleep), and
// every random draw from an explicitly seeded source — so wall-clock
// time and the global math/rand state, both of which vary run to run
// and with GOMAXPROCS, are banned outright.
//
// The ban is transitive: a scoped function that reaches time.Now or
// the global rand state through a helper in a package outside the
// scope — where the direct use is perfectly legal — is reported at
// its first call toward the sink, with the chain printed. One
// nondeterministic hop anywhere in the loop invalidates the
// bit-identical timing comparison the SP2 reproduction rests on.
var Simclock = &Analyzer{
	Name: "simclock",
	Doc: "wall-clock time (time.Now/Since/...) and global math/rand are banned in " +
		"simulated-clock packages, including transitively through helpers in other packages",
	Run: runSimclock,
}

// forbiddenTimeFuncs are the wall-clock entry points of package time.
// Pure constructors/parsers (time.Duration, time.Parse, ...) stay
// legal.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRandFuncs are the package-level math/rand functions that do
// not touch the global source.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 seeded constructors.
	"NewPCG": true, "NewChaCha8": true,
}

// clockSink is one direct wall-clock or global-rand use inside a
// function body.
type clockSink struct {
	pos  token.Pos
	desc string // e.g. "time.Now" or "rand.Float64"
}

// clockSinkAt classifies one identifier use as a forbidden source, or
// returns "" when it is clean.
func clockSinkAt(info *types.Info, id *ast.Ident) string {
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil { // methods (e.g. rand.Rand.Float64) are fine
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTimeFuncs[fn.Name()] {
			return "time." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandFuncs[fn.Name()] {
			return "rand." + fn.Name()
		}
	}
	return ""
}

func runSimclock(pass *Pass) {
	inScope := func(pkg *Package) bool {
		return pass.Config.matches(pass.Config.SimclockPaths, pkg.Path)
	}

	// Direct uses inside scoped packages, reported at the identifier.
	for _, pkg := range pass.Pkgs {
		if !inScope(pkg) {
			continue
		}
		for _, file := range pkg.Files {
			if isTestFile(pass.Fset, file) {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				switch desc := clockSinkAt(pkg.Info, id); {
				case desc == "":
				case desc[0] == 't':
					pass.Reportf(id.Pos(), "%s reads the wall clock; simulated-clock packages must charge the cluster ledger instead", desc)
				default:
					pass.Reportf(id.Pos(), "%s draws from the global source; use an explicitly seeded rand.New(rand.NewSource(...))", desc)
				}
				return true
			})
		}
	}

	// Transitive reach: scoped functions whose call graph hits a
	// direct sink inside an out-of-scope module package. Sinks inside
	// scoped packages are already direct findings above, so helpers in
	// the same scope act as barriers rather than duplicate reports.
	g := pass.Facts.Graph
	sinks := map[types.Object][]clockSink{}
	sinksOf := func(n *CallNode) []clockSink {
		if s, ok := sinks[n.Obj]; ok {
			return s
		}
		var s []clockSink
		ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if desc := clockSinkAt(n.Pkg.Info, id); desc != "" {
					s = append(s, clockSink{pos: id.Pos(), desc: desc})
				}
			}
			return true
		})
		sinks[n.Obj] = s
		return s
	}
	for _, root := range g.sortedNodes() {
		if !inScope(root.Pkg) {
			continue
		}
		if isTestFile(pass.Fset, fileOf(root.Pkg, root.Decl.Pos())) {
			continue
		}
		pred := g.reachableStopping(root.Obj, func(o types.Object) bool {
			n := g.Nodes[o]
			return n != nil && inScope(n.Pkg)
		})
		for _, n := range g.sortedNodes() {
			if _, reached := pred[n.Obj]; !reached || inScope(n.Pkg) {
				continue
			}
			s := sinksOf(n)
			if len(s) == 0 {
				continue
			}
			chain := Chain(pred, root.Obj, n.Obj)
			pass.Reportf(chain[0].Site,
				"%s reaches %s through %s (call chain %s); simulated-clock packages must charge the cluster ledger and use seeded sources only",
				FuncName(root.Obj), s[0].desc, FuncName(n.Obj), FormatChain(root.Obj, chain))
			break // one chain per scoped function keeps the signal readable
		}
	}
}
