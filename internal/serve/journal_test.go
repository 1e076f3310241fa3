package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// sampleResults builds per-view results with awkward floats — values
// whose decimal representations are not exact — to exercise the
// journal's bit-exact float64 round-trip.
func sampleResults() []core.Result {
	return []core.Result{
		{
			Orient:   geom.Euler{Theta: 0.1 + 0.2, Phi: 1.0 / 3.0, Omega: -2.718281828459045},
			Center:   [2]float64{0.30000000000000004, -0.1},
			Distance: 3.141592653589793,
			PerLevel: []core.LevelStats{{
				Matchings: 729, Slides: 3, CenterEvals: 27, BandUsed: 88,
				Shifts: [][2]float64{{0.1, -0.2}, {0.05, 0.15000000000000002}},
			}},
		},
		{
			Orient:   geom.Euler{Theta: 91.7, Phi: -12.25, Omega: 359.999},
			Center:   [2]float64{-1.5, 2.25},
			Distance: 0.021,
			PerLevel: []core.LevelStats{{Matchings: 343, Shifts: [][2]float64{{-0.7, 0.7}}}},
		},
	}
}

// TestJournalRoundTrip: submit + level + terminal records replay to
// exactly the state that was journaled, including every float bit of
// the recorded shift increments.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Dataset: "asymmetric", Scale: 2.5, Views: 2, Levels: 2, Pad: 2, InitError: 2, InitSeed: 5}
	results := sampleResults()
	sum := &Summary{MeanAngularError: 0.25, MaxAngularError: 0.5, MeanDistance: 1.5}
	if err := j.Submit("job-000001", spec); err != nil {
		t.Fatal(err)
	}
	for level := 0; level < spec.Levels; level++ {
		if err := j.Level("job-000001", level, results); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Submit("job-000002", spec); err != nil {
		t.Fatal(err)
	}
	if err := j.Terminal("job-000001", StateDone, "", sum); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := j2.Close(); err != nil {
			t.Error(err)
		}
	}()
	want := []JobReplay{
		{ID: "job-000001", Spec: spec, LevelsDone: 2, Results: results, State: StateDone, Summary: sum, LastMapCycle: -1},
		{ID: "job-000002", Spec: spec, State: StatePending, LastMapCycle: -1},
	}
	if got := j2.Replay(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestJournalTornTail: a crash mid-append leaves a partial final line;
// replay drops it and keeps everything acknowledged before it.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Submit("job-000001", JobSpec{Dataset: "asymmetric", Views: 2, Levels: 1, Pad: 2, InitError: 2}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"level","id":"job-000001","lev`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	defer func() {
		if err := j2.Close(); err != nil {
			t.Error(err)
		}
	}()
	rp := j2.Replay()
	if len(rp) != 1 || rp[0].ID != "job-000001" || rp[0].LevelsDone != 0 || rp[0].State != StatePending {
		t.Fatalf("unexpected replay after torn tail: %+v", rp)
	}
}

// TestJournalTornTailThenAppend: a restart after a crash mid-append
// must leave a journal the next restart can read. The unterminated tail
// is never applied — not even a complete record missing only its '\n',
// which was never acknowledged — and the next append starts a fresh
// line instead of merging into the tail.
func TestJournalTornTailThenAppend(t *testing.T) {
	spec := JobSpec{Dataset: "asymmetric", Views: 2, Levels: 1, Pad: 2, InitError: 2}
	for _, c := range []struct{ name, tail string }{
		{"torn fragment", `{"kind":"level","id":"job-000001","lev`},
		{"unterminated record", `{"kind":"terminal","id":"job-000001","state":"done"}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "jobs.jsonl")
			j, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Submit("job-000001", spec); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(c.tail); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			j2, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := j2.Submit("job-000002", spec); err != nil {
				t.Fatal(err)
			}
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			j3, err := OpenJournal(path)
			if err != nil {
				t.Fatalf("restart after torn tail + append: %v", err)
			}
			defer func() {
				if err := j3.Close(); err != nil {
					t.Error(err)
				}
			}()
			want := []JobReplay{
				{ID: "job-000001", Spec: spec, State: StatePending, LastMapCycle: -1},
				{ID: "job-000002", Spec: spec, State: StatePending, LastMapCycle: -1},
			}
			if got := j3.Replay(); !reflect.DeepEqual(got, want) {
				t.Fatalf("replay mismatch:\ngot  %+v\nwant %+v", got, want)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != j3.Size() {
				t.Fatalf("Size() %d, file %v (%v)", j3.Size(), fi.Size(), err)
			}
		})
	}
}

// levelRecord is a level record of job-000001 carrying n results.
func levelRecord(level, n int) string {
	res := strings.Repeat(`{"orient":{"theta":1,"phi":2,"omega":3}},`, n)
	return fmt.Sprintf(`{"kind":"level","id":"job-000001","level":%d,"results":[%s]}`, level, strings.TrimSuffix(res, ","))
}

// Journals the fold rejects though each line parses: a refine job's
// level with more results than views (a restart once indexed past the
// views and killed the daemon), with fewer (the job once ran to done on
// one view), and a cycle job's level before any cycle_start (the job
// once ran to done, leaving a journal no restart could read).
var (
	tinySubmit       = `{"kind":"submit","id":"job-000001","spec":{"dataset":"asymmetric","scale":2.5,"views":4,"levels":2}}`
	tinyCycleSubmit  = `{"kind":"submit","id":"job-000001","spec":{"type":"cycle","dataset":"asymmetric","scale":2.5,"views":4,"levels":2,"max_cycles":2}}`
	tooManyResults   = tinySubmit + "\n" + levelRecord(0, 6) + "\n"
	tooFewResults    = tinySubmit + "\n" + levelRecord(0, 1) + "\n"
	levelBeforeCycle = tinyCycleSubmit + "\n" + levelRecord(0, 4) + "\n"
)

// FuzzJournalReplay: replay never panics on arbitrary bytes; every
// file OpenJournal accepts revives in a manager, each job holding
// either no results or one per view and no more levels than its
// schedule; and the file stays appendable — one more submit, a close
// and a reopen replay exactly one more job.
func FuzzJournalReplay(f *testing.F) {
	valid := `{"kind":"submit","id":"job-000001","spec":{"dataset":"asymmetric","views":1,"levels":1}}` + "\n" +
		`{"kind":"level","id":"job-000001","level":0,"results":[{"orient":{"theta":1,"phi":2,"omega":3}}]}` + "\n" +
		`{"kind":"terminal","id":"job-000001","state":"done"}` + "\n"
	f.Add([]byte(valid))
	f.Add([]byte(valid + `{"kind":"submit","id":"job-0000`))
	f.Add([]byte(`{"kind":"submit","id":"job-000001","spec":{"dataset":"asymmetric"}}` + "\nnot json\n" +
		`{"kind":"terminal","id":"job-000001","state":"done"}` + "\n"))
	for _, seed := range []string{tooManyResults, tooFewResults, levelBeforeCycle} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = replayJournal(data)

		path := filepath.Join(t.TempDir(), "jobs.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			return // rejected as corrupt: nothing more to hold
		}
		m, err := NewManager(Options{Journal: j})
		if err != nil {
			t.Fatalf("accepted journal does not revive: %v", err)
		}
		for _, jb := range m.jobs {
			d := jb.durable
			if d.Results != nil && len(d.Results) != jb.spec.Views {
				t.Fatalf("job %s revived with %d results for %d views", jb.id, len(d.Results), jb.spec.Views)
			}
			if d.LevelsDone > jb.spec.levelsTotal() {
				t.Fatalf("job %s revived with %d of %d levels done", jb.id, d.LevelsDone, jb.spec.levelsTotal())
			}
		}
		n := len(j.Replay())
		seen := map[string]bool{}
		for _, rp := range j.Replay() {
			seen[rp.ID] = true
		}
		id := "job-fuzz"
		for seen[id] {
			id += "x"
		}
		if err := j.Submit(id, JobSpec{Dataset: "asymmetric"}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("accepted journal unreadable after one append: %v", err)
		}
		defer j2.Close()
		if got := len(j2.Replay()); got != n+1 {
			t.Fatalf("replayed %d jobs after appending to %d", got, n)
		}
	})
}

// TestJournalMalformedMiddle: a garbage line that is not the torn tail
// is corruption, not a crash artifact — it must fail the open.
func TestJournalMalformedMiddle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	lines := []string{
		`{"kind":"submit","id":"job-000001","spec":{"dataset":"asymmetric"}}`,
		`this is not JSON`,
		`{"kind":"terminal","id":"job-000001","state":"done"}`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil {
		t.Fatal("malformed interior line not rejected")
	}
}

// TestJournalInconsistentRecords: level records must reference a
// submitted job and arrive in schedule order, and a job is done only
// after its last level (refine) or its stop reason (cycle).
func TestJournalInconsistentRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	for _, bad := range []string{
		`{"kind":"level","id":"job-000009","level":0}`,
		`{"kind":"submit","id":"job-000001","spec":{"dataset":"asymmetric"}}` + "\n" +
			`{"kind":"level","id":"job-000001","level":1}`,
		`{"kind":"submit","id":"job-000001","spec":{"dataset":"asymmetric"}}` + "\n" +
			`{"kind":"terminal","id":"job-000001","state":"running"}`,
		`{"kind":"wat","id":"job-000001"}`,
	} {
		if err := os.WriteFile(path, []byte(bad+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenJournal(path); err == nil {
			t.Errorf("inconsistent journal accepted: %s", bad)
		}
	}
	cancelled := `{"kind":"terminal","id":"job-000001","state":"cancelled"}` + "\n"
	done := `{"kind":"terminal","id":"job-000001","state":"done"}` + "\n"
	cycleLevels := tinyCycleSubmit + "\n" + `{"kind":"cycle_start","id":"job-000001","cycle":0}` + "\n" +
		levelRecord(0, 4) + "\n" + levelRecord(1, 4) + "\n"
	for _, c := range []struct {
		name, journal string
		line          int
	}{
		{"more results than views", tooManyResults, 2},
		{"fewer results than views", tooFewResults, 2},
		{"cycle level before cycle_start", levelBeforeCycle, 2},
		{"record after terminal", tinySubmit + "\n" + cancelled + levelRecord(0, 4) + "\n", 3},
		{"refine job done before its last level", tinySubmit + "\n" + levelRecord(0, 4) + "\n" + done, 3},
		{"cycle job done with no stop reason", cycleLevels + done, 5},
		{"cycle_start on a refine job", tinySubmit + "\n" + `{"kind":"cycle_start","id":"job-000001","cycle":0}` + "\n", 2},
	} {
		if err := os.WriteFile(path, []byte(c.journal), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenJournal(path)
		if want := fmt.Sprintf("journal line %d: ", c.line); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: OpenJournal error %v, want one at %q", c.name, err, want)
		}
	}
}

// TestJournalReplayEqualsLiveState: the live path folds every record it
// journals through the fold replay uses, so at every level and map
// checkpoint, and at the terminal state, a copy of the journal replays
// exactly the running job's durable state.
func TestJournalReplayEqualsLiveState(t *testing.T) {
	for _, c := range []struct {
		name   string
		spec   JobSpec
		checks int // levels + maps + the terminal state
	}{
		{TypeRefine, tinySpec(), 2 + 0 + 1},
		{TypeCycle, tinyCycleSpec(), 4 + 2 + 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "jobs.jsonl")
			j, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			var m *Manager
			checks := 0
			// check runs on the executor goroutine at checkpoints: Errorf,
			// not Fatal.
			check := func(id, at string) {
				checks++
				data, err := os.ReadFile(path)
				if err != nil {
					t.Error(err)
					return
				}
				cp := filepath.Join(t.TempDir(), "copy.jsonl")
				if err := os.WriteFile(cp, data, 0o644); err != nil {
					t.Error(err)
					return
				}
				jc, err := OpenJournal(cp)
				if err != nil {
					t.Errorf("%s: %v", at, err)
					return
				}
				defer jc.Close()
				m.mu.Lock()
				live := m.jobs[id].durable
				m.mu.Unlock()
				if got := jc.Replay(); !reflect.DeepEqual(got, []JobReplay{live}) {
					t.Errorf("%s: replay\n  %+v\nlive\n  %+v", at, got, live)
				}
			}
			m, err = NewManager(Options{
				Stream:     tinyStream(),
				Journal:    j,
				OnLevel:    func(id string, level int) { check(id, fmt.Sprintf("level %d", level)) },
				OnCycleMap: func(id string, cyc int) { check(id, fmt.Sprintf("cycle %d map", cyc)) },
			})
			if err != nil {
				t.Fatal(err)
			}
			m.Start()
			st, err := m.Submit(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, m, st.ID, StateDone)
			m.Drain()
			check(st.ID, "terminal")
			if checks != c.checks {
				t.Fatalf("%d checks, want %d", checks, c.checks)
			}
		})
	}
}
