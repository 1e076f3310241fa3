package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// simclockScope is the import-path fragment of the packages where
// wall-clock time and global randomness are banned: every package under
// internal/. Commands under cmd/ own the real clock and inject it.
const simclockScope = "internal/"

// Simclock enforces the determinism contract of the library packages:
// every duration must come from the per-rank clocks of the cluster
// ledger (cluster.Cluster.Clock/Compute/Sleep) — Tables 1–2 and step
// a's pricing — or from a clock the caller injects (the job service's
// logical ticks, the trace spans' timestamps), and every random draw
// from an explicitly seeded source. Wall-clock time and the global
// math/rand state, both of which vary run to run and with GOMAXPROCS,
// are banned outright in every package under internal/, so a helper
// that starts reading the clock is a finding where it does so, not
// only where a simulated-clock caller reaches it.
var Simclock = &Analyzer{
	Name: "simclock",
	Doc: "wall-clock time (time.Now/Since/...) and global math/rand are banned in " +
		"every package under internal/; time comes from the ledger or an injected clock",
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
	for _, pkg := range pass.Pkgs {
		if !strings.Contains(pkg.Path, simclockScope) {
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
					pass.Reportf(id.Pos(), "%s reads the wall clock; internal packages charge the cluster ledger or take an injected clock", desc)
				default:
					pass.Reportf(id.Pos(), "%s draws from the global source; use an explicitly seeded rand.New(rand.NewSource(...))", desc)
				}
				return true
			})
		}
	}
}
