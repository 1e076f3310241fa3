package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTablesGolden holds two runs byte for byte against their goldens:
//   - `tables -exp all -scale 3` against testdata/all.scale3.golden
//     (generated at f2d3ef9, the commit before the experiments moved
//     onto cycle.Run);
//   - `tables -exp table1,table2 -scale 3 -p 7` against
//     testdata/table12.scale3.p7.golden (generated at ad57687, while
//     step a still ran a real slab-decomposed FFT). At L = 16 and 18
//     over 7 nodes every slab partition is uneven, so this case holds
//     the ledger's pricing of uneven slabs, which ModelTime does not
//     model.
//
// Every experiment is deterministic, so a moved digit is a changed
// computation: name the experiment, the cause and the size in
// EXPERIMENTS.md before regenerating a file (`go run ./cmd/tables
// <args> > cmd/tables/testdata/<golden>`).
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"all.scale3.golden", []string{"-exp", "all", "-scale", "3"}},
		{"table12.scale3.p7.golden", []string{"-exp", "table1,table2", "-scale", "3", "-p", "7"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(&got, tc.args); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatal(firstDiff(got.String(), string(want)))
			}
		})
	}
}

// firstDiff names the first line where got departs from want, and the
// experiment it belongs to.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	exp := "(before the first experiment)"
	for i := 0; i < len(gl) || i < len(wl); i++ {
		g, w := "<end of output>", "<end of output>"
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g == w {
			if strings.HasPrefix(g, "==== ") {
				exp = strings.Trim(g, "= ")
			}
			continue
		}
		return fmt.Sprintf("output differs from the golden, first in experiment %q:\n@@ line %d @@\n-%s\n+%s", exp, i+1, w, g)
	}
	return "output differs from the golden"
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if err := run(io.Discard, []string{"-exp", "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestRunRejectsNonPositiveP: -p 0 and -p -3 are errors, not a silent
// fallback to the library's 16-node default.
func TestRunRejectsNonPositiveP(t *testing.T) {
	for _, p := range []string{"0", "-3"} {
		if err := run(io.Discard, []string{"-exp", "fig1b", "-p", p}); err == nil {
			t.Errorf("-p %s accepted", p)
		}
	}
}
