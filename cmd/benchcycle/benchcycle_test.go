package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestManifestMatchesCode pins BENCHMARK.json to the tables the program
// reports from: same workloads, same metrics, same units and bounds.
func TestManifestMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest names %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q / %q, program %q / %q", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest declares %d+%d metrics, the program %d+%d", len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for i, d := range endToEnd {
		if got := m.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: manifest %+v, program %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
	for i, d := range perLayer {
		if got := m.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: manifest %+v, program %+v", i, got, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or duplicate name or unit", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, p := range m.Paths {
		if p != "cmd/benchcycle" {
			t.Errorf("unexpected path %q", p)
		}
	}
}

// TestSmokeWorkloads runs every workload, untraced and traced, at the
// smoke sizes through the same code the full sizes use: every
// correctness check must pass (the stage replay ending on the served
// job's digest and FSC among them), the emitted metric names must be
// exactly the declared ones, and the span budget must sum.
func TestSmokeWorkloads(t *testing.T) {
	base := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			e := &env{workload: w.name, seed: 1, seconds: 0.4, traced: traced, smoke: true, base: base}
			res, err := e.run()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d checks failed", w.name, traced, res.failed, res.attempted)
			}
			line, err := res.line(traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q, want %q", w.name, traced, d.Name, m.Unit, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %g, must never be 0", w.name, d.Name, m.Value)
				}
			}
			if !traced {
				continue
			}
			if c := line.Metrics["trace.budget_coverage"].Value; c < 0.95 || c > 1.05 {
				t.Errorf("%s: trace.budget_coverage %.3f outside [0.95, 1.05]", w.name, c)
			}
			share := line.Metrics["core.share"].Value
			if w.name == "recon_fsc" && share != 0 {
				t.Errorf("recon_fsc: core.share %g, want no core time at all", share)
			}
			if strings.HasPrefix(w.name, "cycle_") && share <= 0 {
				t.Errorf("%s: core.share %g, want refinement time under the replay", w.name, share)
			}
			if _, err := os.Stat(res.meta["trace_file"].(string)); err != nil {
				t.Errorf("%s: trace file: %v", w.name, err)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 7}, 4.5, 7.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestCompare drives -compare over two synthetic results files: an
// unchanged metric is ok, one past its bound is worse, one whose spread
// exceeds the bound is unresolved, and a held-out seed is selectable.
func TestCompare(t *testing.T) {
	mk := func(cycle []float64, failed int) resultSet {
		ws := workloadResult{Name: "cycle_adaptive", Failed: failed, EndToEnd: map[string]series{}, PerLayer: map[string]metricValue{}}
		for _, d := range endToEnd {
			ws.EndToEnd[d.Name] = series{Unit: d.Unit, Median: 1, Values: []float64{1, 1.001, 0.999}}
		}
		ws.EndToEnd["cycle_s"] = series{Unit: "s", Median: median(cycle), Values: cycle}
		return resultSet{Seed: 1, Workloads: []workloadResult{ws}}
	}
	write := func(name string, sets ...resultSet) string {
		data, err := json.Marshal(resultsFile{Schema: 1, Sets: sets})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk([]float64{2.00, 2.01, 1.99}, 0)
	heldOut := base
	heldOut.Seed = 2
	a := write("a.json", base, heldOut)
	for _, c := range []struct {
		name  string
		b     resultSet
		worse bool
		want  string
	}{
		{"same", mk([]float64{2.02, 2.00, 2.01}, 0), false, "cycle_s"},
		{"slower", mk([]float64{2.70, 2.71, 2.69}, 0), true, "worse"},
		{"noisy", mk([]float64{1.2, 2.1, 3.0}, 0), false, "unresolved"},
		{"faster", mk([]float64{1.50, 1.51, 1.49}, 0), false, "ok"},
		{"failing", mk([]float64{2.00, 2.01, 1.99}, 1), true, "failed checks rose"},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, a, write("b.json", c.b), 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: worse=%v, want %v with %q in:\n%s", c.name, worse, c.worse, c.want, out.String())
		}
	}
	var out bytes.Buffer
	if _, err := compareFiles(&out, a, a, 2); err != nil {
		t.Errorf("held-out seed 2: %v", err)
	}
	if _, err := compareFiles(&out, a, a, 3); err == nil {
		t.Error("seed 3 is in neither file, want an error")
	}
}
