// Command replint runs the project lint suite (internal/analysis)
// over the module: five per-function analyzers that mechanically
// enforce the repository's determinism, oracle-separation, hot-path
// and error-handling invariants.
//
// Usage:
//
//	replint [-list] [./...]
//
// With no arguments (or "./...") the whole module containing the
// current directory is analyzed. Findings print as
//
//	file:line:col: [analyzer] message
//
// with file relative to the module root, and the exit status is 1 when
// any survive suppression, so the command gates CI directly. A
// //replint:allow without a reason, or with nothing left to waive, is a
// finding of the pseudo-analyzer "suppression". Packages the loader has
// to skip (parse or type errors) are findings of the pseudo-analyzer
// "load" — a partial analysis never passes silently.
//
//	-list  print the suite, sorted by analyzer name
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers of the suite and exit")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	findings, root, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "replint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Printf("%s:%d:%d: [%s] %s\n", relPath(root, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// relPath renders filename relative to root with forward slashes;
// files outside root keep their absolute path.
func relPath(root, filename string) string {
	if filename == "" {
		return "unknown"
	}
	if r, err := filepath.Rel(root, filename); err == nil && !strings.HasPrefix(r, "..") {
		return filepath.ToSlash(r)
	}
	return filepath.ToSlash(filename)
}

func run() ([]analysis.Finding, string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, "", err
	}
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		return nil, "", err
	}
	modPath, err := analysis.ModulePath(root)
	if err != nil {
		return nil, "", err
	}
	loader, err := analysis.NewLoader(root, modPath)
	if err != nil {
		return nil, "", err
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, "", err
	}
	findings := analysis.Run(loader.Fset, pkgs, analysis.All())
	findings = append(findings, analysis.DiagnosticFindings(loader.Diagnostics())...)
	analysis.SortFindings(findings)
	return findings, root, nil
}
