package analysis

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden-fixture harness: each tree under testdata/src/<name> is a
// tiny module loaded with an empty base path, so packages get import
// paths like "internal/core" — which is how a fixture opts into the
// path-scoped analyzers (Config matches by substring). A trailing
//
//	// want <analyzer> "<regexp>"
//
// comment marks the line as expecting exactly that finding; the
// harness fails on both missing and unexpected findings, so the
// negative halves of the fixtures (compliant code, out-of-scope
// packages) are asserted by their absence of want comments.

type wantSpec struct {
	file     string // relative to the fixture root
	line     int
	analyzer string
	re       *regexp.Regexp
	matched  bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+([a-z]+)\s+"([^"]+)"`)

// collectWants scans every fixture source file for want comments.
func collectWants(t *testing.T, root string) []*wantSpec {
	t.Helper()
	var wants []*wantSpec
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRE.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[2])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", rel, line, m[2], err)
			}
			wants = append(wants, &wantSpec{file: rel, line: line, analyzer: m[1], re: re})
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// runFixture loads and analyzes one fixture tree.
func runFixture(t *testing.T, name string) ([]Finding, string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root, "")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	return Run(loader.Fset, pkgs, All(), DefaultConfig()), root
}

// checkFixture asserts the exact want⇄finding correspondence.
func checkFixture(t *testing.T, name string) {
	t.Helper()
	findings, root := runFixture(t, name)
	wants := collectWants(t, root)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", name)
	}
	for _, f := range findings {
		rel, err := filepath.Rel(root, f.Pos.Filename)
		if err != nil {
			rel = f.Pos.Filename
		}
		covered := false
		for _, w := range wants {
			if w.file == rel && w.line == f.Pos.Line && w.analyzer == f.Analyzer && w.re.MatchString(f.Message) {
				w.matched = true
				covered = true
			}
		}
		if !covered {
			t.Errorf("unexpected finding %s:%d: [%s] %s", rel, f.Pos.Line, f.Analyzer, f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing finding: %s:%d: [%s] matching %q", w.file, w.line, w.analyzer, w.re)
		}
	}
}

func TestSimclockFixture(t *testing.T)     { checkFixture(t, "simclock") }
func TestCycleClockFixture(t *testing.T)   { checkFixture(t, "cycleclock") }
func TestOracleGuardFixture(t *testing.T)  { checkFixture(t, "oracleguard") }
func TestMapOrderFixture(t *testing.T)     { checkFixture(t, "maporder") }
func TestHotpathAllocFixture(t *testing.T) { checkFixture(t, "hotpathalloc") }
func TestErrSinkFixture(t *testing.T)      { checkFixture(t, "errsink") }
func TestServeFixture(t *testing.T)        { checkFixture(t, "serve") }
func TestObsSpanFixture(t *testing.T)      { checkFixture(t, "obsspan") }
func TestObsEventFixture(t *testing.T)     { checkFixture(t, "obsevent") }

// TestSuppressionFixture asserts the waiver machinery directly: the
// reasoned //replint:allow swallows its finding, the reason-less one is
// itself reported and waives nothing, so exactly two findings survive —
// one malformed-suppression report and the unwaived simclock finding.
func TestSuppressionFixture(t *testing.T) {
	findings, _ := runFixture(t, "suppress")
	byAnalyzer := map[string]int{}
	for _, f := range findings {
		byAnalyzer[f.Analyzer]++
	}
	if byAnalyzer["suppression"] != 1 {
		t.Errorf("want 1 malformed-suppression finding, got %d", byAnalyzer["suppression"])
	}
	if byAnalyzer["simclock"] != 1 {
		t.Errorf("want 1 surviving simclock finding (the malformed allow must not waive), got %d", byAnalyzer["simclock"])
	}
	if len(findings) != 2 {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
		t.Errorf("want exactly 2 findings, got %d", len(findings))
	}
}

// TestListOrder pins the suite's reporting order — sorted by analyzer
// name — so cmd/replint -list output stays stable and deterministic.
func TestListOrder(t *testing.T) {
	got := make([]string, 0, len(All()))
	for _, a := range All() {
		got = append(got, a.Name)
	}
	want := []string{"errsink", "hotpathalloc", "maporder", "oracleguard", "simclock"}
	if len(got) != len(want) {
		t.Fatalf("suite = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("suite = %v, want %v", got, want)
		}
	}
}
