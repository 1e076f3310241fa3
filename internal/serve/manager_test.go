package serve

import (
	"errors"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

// tinySpec is the smallest meaningful job: the asymmetric dataset
// shrunk to a 16³ box with a handful of views and two schedule levels
// — enough to cross a checkpoint boundary.
func tinySpec() JobSpec {
	return JobSpec{Dataset: "asymmetric", Scale: 2.5, Views: 4, Levels: 2, InitSeed: 3}
}

// tinyStream keeps the per-job pipeline small so tests don't oversubscribe.
func tinyStream() core.StreamOptions {
	return core.StreamOptions{Workers: 2}
}

// waitState polls until the job leaves the running/pending states or
// the deadline passes, returning the final status.
func waitState(t *testing.T, m *Manager, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (%s), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestManagerRunsJob: a submitted job runs the full schedule, reports
// progress, and its summary shows refinement actually tightened the
// orientations versus the initial perturbation.
func TestManagerRunsJob(t *testing.T) {
	m, err := NewManager(Options{Stream: tinyStream()})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Drain()
	st, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StatePending || st.ID == "" {
		t.Fatalf("unexpected initial status %+v", st)
	}
	if st.Views != 4 || st.LevelsTotal != 2 || st.Spec.Pad != 2 || st.Spec.InitError != 2 {
		t.Fatalf("defaults not applied: %+v", st)
	}
	fin := waitState(t, m, st.ID, StateDone)
	if fin.LevelsDone != 2 {
		t.Fatalf("levels done %d, want 2", fin.LevelsDone)
	}
	if fin.Summary == nil {
		t.Fatal("done job has no summary")
	}
	// The 16³ smoke box is too small for a refinement-quality oracle
	// (that lives in the native-scale workload tests); just require the
	// summary to be populated and sane.
	if fin.Summary.MeanDistance <= 0 || fin.Summary.MaxAngularError < fin.Summary.MeanAngularError {
		t.Fatalf("implausible summary: %+v", fin.Summary)
	}
	res, err := m.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || len(res[0].PerLevel) != 2 {
		t.Fatalf("results shape: %d views, %d levels", len(res), len(res[0].PerLevel))
	}
}

// TestManagerKillResume is the tentpole property: drain the manager at
// the level-0 checkpoint (the in-process analogue of killing the
// daemon), bring up a fresh manager on the same journal, and the
// finished orientations must be bit-identical to a never-interrupted
// run of the same spec.
func TestManagerKillResume(t *testing.T) {
	// Uninterrupted reference run, no journal.
	ref, err := NewManager(Options{Stream: tinyStream()})
	if err != nil {
		t.Fatal(err)
	}
	ref.Start()
	refSt, err := ref.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, ref, refSt.ID, StateDone)
	wantRes, err := ref.Results(refSt.ID)
	if err != nil {
		t.Fatal(err)
	}
	ref.Drain()

	// Interrupted run: stop at the first checkpoint.
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var m1 *Manager
	m1, err = NewManager(Options{
		Stream:  tinyStream(),
		Journal: j1,
		// RequestDrain (not Drain) — OnLevel runs on the executor
		// goroutine Drain would wait for.
		OnLevel: func(id string, level int) {
			if level == 0 {
				m1.RequestDrain()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m1.Start()
	st, err := m1.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	m1.wg.Wait() // executors exit at the drain checkpoint
	parked, err := m1.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if parked.State != StatePending || parked.LevelsDone != 1 {
		t.Fatalf("parked status %+v, want pending with 1 level done", parked)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same journal: the job resumes and finishes.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := j2.Close(); err != nil {
			t.Error(err)
		}
	}()
	m2, err := NewManager(Options{Stream: tinyStream(), Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	m2.Start()
	defer m2.Drain()
	resumed := waitState(t, m2, st.ID, StateDone)
	if !resumed.Resumed {
		t.Fatal("resumed job not flagged as resumed")
	}
	gotRes, err := m2.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		for i := range wantRes {
			if !reflect.DeepEqual(gotRes[i], wantRes[i]) {
				t.Errorf("view %d: resumed %+v vs uninterrupted %+v", i, gotRes[i], wantRes[i])
			}
		}
		t.Fatal("kill-and-resume diverged from the uninterrupted run")
	}
	if !reflect.DeepEqual(resumed.Summary, want.Summary) {
		t.Fatalf("summary diverged: %+v vs %+v", resumed.Summary, want.Summary)
	}
	if len(want.Levels) != 2 || !reflect.DeepEqual(resumed.Levels, want.Levels) {
		t.Fatalf("level summaries diverged: %+v vs %+v", resumed.Levels, want.Levels)
	}
}

// TestLevelSummaryPerJob: a job's per-level summaries are its own.
// The second of two different jobs in one manager reports, on
// GET /jobs/{id}, the levels the same spec reports alone in a fresh
// manager — no count leaks in from the job before it.
func TestLevelSummaryPerJob(t *testing.T) {
	levels := func(specs ...JobSpec) []core.LevelSummary {
		t.Helper()
		m, err := NewManager(Options{Stream: tinyStream()})
		if err != nil {
			t.Fatal(err)
		}
		m.Start()
		defer m.Drain()
		ts := httptest.NewServer(NewHandler(m))
		defer ts.Close()
		var id string
		for _, spec := range specs {
			st, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, m, st.ID, StateDone)
			id = st.ID
		}
		var body struct {
			Levels []core.LevelSummary `json:"levels"`
		}
		getJSON(t, ts, "/jobs/"+id, &body)
		return body.Levels
	}
	first := tinySpec()
	first.Levels, first.InitSeed = 3, 5
	shared := levels(first, tinyCycleSpec())
	alone := levels(tinyCycleSpec())
	if len(alone) != tinyCycleSpec().Levels || alone[0].Views != tinyCycleSpec().Views || alone[0].Matchings == 0 {
		t.Fatalf("cycle job alone reports levels %+v", alone)
	}
	if !reflect.DeepEqual(shared, alone) {
		t.Fatalf("second job's levels %+v, same spec alone %+v", shared, alone)
	}
}

// TestManagerQueueFull: with no executors running, the admission queue
// fills at QueueDepth and further submits fail with the retriable
// ErrQueueFull; cancelling does not readmit (the slot frees when an
// executor picks the job up).
func TestManagerQueueFull(t *testing.T) {
	m, err := NewManager(Options{QueueDepth: 2, Stream: tinyStream()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(tinySpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(tinySpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(tinySpec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
}

// TestManagerCancel: cancelling a pending job is immediate and final;
// a second cancel reports the conflict.
func TestManagerCancel(t *testing.T) {
	m, err := NewManager(Options{Stream: tinyStream()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Cancel(st.ID)
	if err != nil || got.State != StateCancelled {
		t.Fatalf("cancel: %+v, %v", got, err)
	}
	if _, err := m.Cancel(st.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("second cancel: %v, want ErrTerminal", err)
	}
	if _, err := m.Cancel("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel of unknown job: %v, want ErrNotFound", err)
	}
	// A cancelled-while-queued job must be skipped, not run.
	m.Start()
	defer m.Drain()
	time.Sleep(50 * time.Millisecond)
	if got, err := m.Get(st.ID); err != nil || got.State != StateCancelled || got.LevelsDone != 0 {
		t.Fatalf("cancelled job advanced: %+v, %v", got, err)
	}
}

// TestManagerDrainRejects: once draining, submits fail fast.
func TestManagerDrainRejects(t *testing.T) {
	m, err := NewManager(Options{Stream: tinyStream()})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	m.Drain()
	if _, err := m.Submit(tinySpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
}

// TestManagerSpecValidation: malformed specs are rejected at submit.
func TestManagerSpecValidation(t *testing.T) {
	m, err := NewManager(Options{Stream: tinyStream()})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []JobSpec{
		{Dataset: "nope"},
		{Dataset: "asymmetric", Levels: 9},
		{Dataset: "asymmetric", Levels: -1},
		{Dataset: "asymmetric", Pad: 7},
		{Dataset: "asymmetric", Scale: -2},
		{Dataset: "asymmetric", Views: -3},
		{Dataset: "asymmetric", InitError: -1},
		{Dataset: "asymmetric", Search: "monte-carlo"},
	} {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

// TestJobSpecSearchNormalize: the search mode defaults to adaptive,
// both explicit modes pass through, and the seed survives untouched —
// the journaled spec must replay the same search path on resume.
func TestJobSpecSearchNormalize(t *testing.T) {
	spec := tinySpec()
	spec.SearchSeed = 42
	norm, _, err := spec.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Search != string(core.SearchAdaptive) {
		t.Errorf("empty search normalized to %q, want %q", norm.Search, core.SearchAdaptive)
	}
	if norm.SearchSeed != 42 {
		t.Errorf("search seed mutated to %d", norm.SearchSeed)
	}
	for _, mode := range []string{string(core.SearchAdaptive), string(core.SearchExhaustive)} {
		spec.Search = mode
		norm, _, err := spec.normalize()
		if err != nil {
			t.Fatalf("mode %q rejected: %v", mode, err)
		}
		if norm.Search != mode {
			t.Errorf("mode %q normalized to %q", mode, norm.Search)
		}
	}
}

// TestManagerDeterminism: two managers given the same spec produce
// identical results — there is no hidden wall-clock or global-rand
// state in the service path.
func TestManagerDeterminism(t *testing.T) {
	run := func() []core.Result {
		m, err := NewManager(Options{Stream: tinyStream()})
		if err != nil {
			t.Fatal(err)
		}
		m.Start()
		defer m.Drain()
		st, err := m.Submit(tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, st.ID, StateDone)
		res, err := m.Results(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("two identical jobs diverged")
	}
}
