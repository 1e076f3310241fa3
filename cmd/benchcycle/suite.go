package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"repro/internal/benchutil"
)

// resultsFile is what the suite records: one set of numbers per seed,
// so a claim made on seed 1 can be checked on a seed not used while the
// change was written. Claim is null in the change that defines the
// benchmark: it claims no gain, it records the baseline.
type resultsFile struct {
	Schema int         `json:"schema"`
	Claim  *string     `json:"claim"`
	Sets   []resultSet `json:"sets"`
}

// resultSet is one full suite run at one seed, with its provenance.
type resultSet struct {
	Seed      int64             `json:"seed"`
	Repeats   int               `json:"repeats"`
	Seconds   float64           `json:"seconds"`
	Smoke     bool              `json:"smoke,omitempty"`
	RunMeta   benchutil.RunMeta `json:"run_meta"`
	GitCommit string            `json:"git_commit"`
	Workloads []workloadResult  `json:"workloads"`
}

// workloadResult is one workload's untraced repeats and traced run.
type workloadResult struct {
	Name      string                 `json:"name"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]series      `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	// Runs is each child's provenance line — GOMAXPROCS, sample counts,
	// resolved job spec and stream shape, digests — untraced runs first,
	// the traced run last.
	Runs []json.RawMessage `json:"runs"`
}

// series is one end-to-end metric over the untraced repeats.
type series struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Values []float64 `json:"values"`
}

func (f *resultsFile) set(seed int64) *resultSet {
	for i := range f.Sets {
		if f.Sets[i].Seed == seed {
			return &f.Sets[i]
		}
	}
	return nil
}

func (s *resultSet) workload(name string) *workloadResult {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i]
		}
	}
	return nil
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &f, nil
}

// runChild runs one workload in a fresh process, so peak RSS and
// GOMAXPROCS are the workload's own, and parses what it printed.
func runChild(name string, seed int64, seconds float64, traced, smoke bool) (resultLine, json.RawMessage, error) {
	var line resultLine
	self, err := os.Executable()
	if err != nil {
		return line, nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	// A child that failed checks exits non-zero but still prints its
	// result line; only a child that could not run at all is an error
	// here.
	stdout, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return line, nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &line); jerr != nil {
		return line, nil, fmt.Errorf("%s: no result line (%v): %w", name, err, jerr)
	}
	var meta json.RawMessage
	for _, ln := range lines {
		if rest, ok := strings.CutPrefix(ln, metaPrefix); ok {
			meta = json.RawMessage(rest)
		}
	}
	return line, meta, nil
}

// runSuite runs every workload -repeats times untraced and once traced,
// prints every metric, and records the set under its seed in out.
func runSuite(seed int64, repeats int, seconds float64, smoke bool, out string) error {
	if repeats < 1 {
		return fmt.Errorf("-repeats %d below 1", repeats)
	}
	set := resultSet{Seed: seed, Repeats: repeats, Seconds: seconds, Smoke: smoke, RunMeta: benchutil.CurrentRunMeta(), GitCommit: gitCommit()}
	failed := 0
	for _, w := range workloads {
		wr := workloadResult{Name: w.name, EndToEnd: map[string]series{}, PerLayer: map[string]metricValue{}}
		for r := 0; r <= repeats; r++ {
			traced := r == repeats
			fmt.Fprintf(os.Stderr, "benchcycle: %s run %d/%d (traced=%v)\n", w.name, r+1, repeats+1, traced)
			line, meta, err := runChild(w.name, seed, seconds, traced, smoke)
			if err != nil {
				return err
			}
			wr.Attempted += line.Attempted
			wr.Failed += line.Failed
			wr.Runs = append(wr.Runs, meta)
			for name, m := range line.Metrics {
				if traced {
					wr.PerLayer[name] = m
					continue
				}
				s := wr.EndToEnd[name]
				s.Unit = m.Unit
				s.Values = append(s.Values, m.Value)
				s.Median = median(s.Values)
				wr.EndToEnd[name] = s
			}
		}
		failed += wr.Failed
		set.Workloads = append(set.Workloads, wr)
	}
	printSet(&set)

	// The one check no single workload can make: the single-threaded
	// twin must have produced cycle_adaptive's cycle-1 map bit for bit.
	var digests [2]string
	for i, name := range []string{"cycle_adaptive", "cycle_adaptive_p1"} {
		var meta struct {
			Digest string `json:"map_digest_cycle1"`
		}
		if err := json.Unmarshal(set.workload(name).Runs[0], &meta); err != nil {
			return err
		}
		digests[i] = meta.Digest
	}
	if digests[0] == "" || digests[0] != digests[1] {
		fmt.Fprintf(os.Stderr, "benchcycle: CHECK FAILED: cycle-1 map digest %.12s at %d threads, %.12s at one\n", digests[0], set.RunMeta.GOMAXPROCS, digests[1])
		failed++
	}
	if failed > 0 {
		return fmt.Errorf("%d failed checks; %s not written", failed, out)
	}

	file := &resultsFile{Schema: 1}
	if prev, err := loadResults(out); err == nil {
		file = prev
	} else if !os.IsNotExist(err) {
		return err
	}
	if old := file.set(seed); old != nil {
		*old = set
	} else {
		file.Sets = append(file.Sets, set)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(file); err != nil {
		return err
	}
	if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote the seed-%d set to %s\n", seed, out)
	return nil
}

// printSet prints every metric of every workload by name and unit.
func printSet(set *resultSet) {
	for _, wr := range set.Workloads {
		fmt.Printf("\n%s  (seed %d, %d checks, %d failed)\n", wr.Name, set.Seed, wr.Attempted, wr.Failed)
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.Name]
			fmt.Printf("  %-32s %12.6g %-8s n=%d %v  [bound %.0f%%]\n", d.Name, s.Median, d.Unit, len(s.Values), s.Values, 100*d.Bound)
		}
		for _, d := range perLayer {
			fmt.Printf("  %-32s %12.6g %s\n", d.Name, wr.PerLayer[d.Name].Value, d.Unit)
		}
	}
}

// gitCommit names the commit the numbers were taken at, when the
// working directory is a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
