package main

import (
	"bytes"
	"io"
	"log"
	"os"
	"strings"
	"testing"
)

// TestTablesGolden holds `tables -exp all -scale 3` byte for byte
// against testdata/all.scale3.golden (generated at f2d3ef9, the commit
// before the experiments moved onto cycle.Run). Every experiment is
// deterministic, so a moved digit is a changed computation: name the
// experiment, the cause and the size in EXPERIMENTS.md before
// regenerating the file (`go run ./cmd/tables -exp all -scale 3 >
// cmd/tables/testdata/all.scale3.golden`).
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	want, err := os.ReadFile("testdata/all.scale3.golden")
	if err != nil {
		t.Fatal(err)
	}
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	var got bytes.Buffer
	if err := run(&got, []string{"-exp", "all", "-scale", "3"}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
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
		t.Fatalf("output differs from the golden, first in experiment %q:\n@@ line %d @@\n-%s\n+%s", exp, i+1, w, g)
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if err := run(io.Discard, []string{"-exp", "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
