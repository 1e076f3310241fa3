package serve

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/reconstruct"
	"repro/internal/volume"
)

// tinyCycleSpec is the smallest meaningful cycle job: two cycles of
// two levels over the shrunken asymmetric dataset.
func tinyCycleSpec() JobSpec {
	return JobSpec{Type: TypeCycle, Dataset: "asymmetric", Scale: 2.5, Views: 4, Levels: 2, MaxCycles: 2, InitSeed: 3}
}

// TestCycleSpecNormalize pins the cycle-spec validation surface.
func TestCycleSpecNormalize(t *testing.T) {
	spec, _, err := tinyCycleSpec().normalize()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Type != TypeCycle || spec.MaxCycles != 2 || spec.PlateauEps != 0.01 || spec.PlateauWindow != 2 {
		t.Fatalf("normalized cycle spec %+v missing defaults", spec)
	}
	if got := spec.levelsTotal(); got != 4 {
		t.Fatalf("levelsTotal = %d, want 4", got)
	}

	bad := []JobSpec{
		{Type: "mystery", Dataset: "asymmetric"},
		{Type: TypeCycle, Dataset: "asymmetric", MaxCycles: -1},
		{Type: TypeCycle, Dataset: "asymmetric", MaxCycles: 65},
		{Type: TypeCycle, Dataset: "asymmetric", PlateauEps: -0.5},
		{Type: TypeCycle, Dataset: "asymmetric", PlateauWindow: -2},
		{Type: TypeCycle, Dataset: "asymmetric", Views: 1}, // no odd/even halves
		{Dataset: "asymmetric", MaxCycles: 3},              // cycle knob on a refine job
		{Dataset: "asymmetric", PlateauEps: 0.1},           // ditto
		{Dataset: "asymmetric", PlateauWindow: 1},          // ditto
		{Type: TypeRefine, Dataset: "asymmetric", MaxCycles: 1},
	}
	for i, s := range bad {
		if _, _, err := s.normalize(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
	// One view is still a valid refine job.
	if _, _, err := (JobSpec{Dataset: "asymmetric", Views: 1}).normalize(); err != nil {
		t.Errorf("one-view refine job rejected: %v", err)
	}
}

// TestManagerCycleJob: a cycle job runs to done with per-cycle status,
// a journaled digest-verified map artifact, and a final summary.
func TestManagerCycleJob(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := j.Close(); err != nil {
			t.Error(err)
		}
	}()
	m, err := NewManager(Options{Stream: tinyStream(), Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Drain()
	st, err := m.Submit(tinyCycleSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.LevelsTotal != 4 || st.Cycle == nil || st.Cycle.Max != 2 {
		t.Fatalf("initial cycle status %+v", st)
	}
	done := waitState(t, m, st.ID, StateDone)
	cs := done.Cycle
	if cs == nil {
		t.Fatal("done cycle job has no cycle status")
	}
	if cs.Done < 1 || cs.Done > 2 || len(cs.History) != cs.Done {
		t.Fatalf("cycle progress %+v", cs)
	}
	if cs.Stopped == "" {
		t.Fatalf("done cycle job has no stop reason: %+v", cs)
	}
	if cs.ResolutionA <= 0 {
		t.Fatalf("no 0.5 crossing recorded: %+v", cs)
	}
	if done.LevelsDone != cs.Done*2 {
		t.Fatalf("levels done %d with %d cycles", done.LevelsDone, cs.Done)
	}
	if done.Summary == nil {
		t.Fatal("done cycle job has no summary")
	}
	// The journaled artifact is the last cycle's map, digest-verified.
	g, err := volume.ReadGridFile(cs.MapPath)
	if err != nil {
		t.Fatal(err)
	}
	if d := reconstruct.MapDigest(g); d != cs.MapDigest {
		t.Fatalf("artifact digest %.12s != journaled %.12s", d, cs.MapDigest)
	}
}

// cycleFingerprint condenses a finished cycle job for bit-identity
// comparison: final map digest, per-cycle FSC records, per-view
// results, and the per-level summaries GET /jobs/{id} reports.
func cycleFingerprint(t *testing.T, m *Manager, id string) string {
	t.Helper()
	st, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	s := st.Cycle.MapDigest
	for _, rec := range st.Cycle.History {
		s += fmt.Sprintf("|%d:%x:%x:%v:%d", rec.Cycle, rec.ResolutionA, rec.MeanCC, rec.Improved, rec.Plateau)
	}
	s += "|" + st.Cycle.Stopped
	s += fmt.Sprintf("|%+v", st.Levels)
	for _, r := range res {
		s += fmt.Sprintf("|%x,%x,%x,%x,%x", r.Orient.Theta, r.Orient.Phi, r.Orient.Omega, r.Center[0], r.Center[1])
	}
	return s
}

// TestManagerCycleResumeDamagedArtifact: a job resuming inside cycle 1
// reloads cycle 0's map artifact. When that file is damaged — here an
// 8-byte header claiming a 2048³ grid, which the reader once tried to
// allocate in full and died of — the job ends failed with the reload
// error, and the manager goes on serving other jobs.
func TestManagerCycleResumeDamagedArtifact(t *testing.T) {
	refDir := t.TempDir()
	refPath := filepath.Join(refDir, "jobs.jsonl")
	j, err := OpenJournal(refPath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Options{Stream: tinyStream(), Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	st, err := m.Submit(tinyCycleSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
	m.Drain()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the journal up to cycle 0's cycle_end: the restart resumes
	// inside cycle 1's refinement and needs cycle 0's map.
	lines := strings.SplitAfter(string(data), "\n")
	keep := 0
	for i, ln := range lines {
		if strings.Contains(ln, `"kind":"cycle_end"`) {
			keep = i + 1
			break
		}
	}
	if keep == 0 {
		t.Fatal("reference journal has no cycle_end record")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines[:keep], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	artifact := filepath.Join(refDir, st.ID+".cycle-0.map")
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr, 0x4d504456) // the grid file magic
	binary.LittleEndian.PutUint32(hdr[4:], 2048)
	if err := os.WriteFile(artifact, hdr, 0o644); err != nil {
		t.Fatal(err)
	}

	jp, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := jp.Close(); err != nil {
			t.Error(err)
		}
	}()
	mp, err := NewManager(Options{Stream: tinyStream(), Journal: jp})
	if err != nil {
		t.Fatal(err)
	}
	mp.Start()
	defer mp.Drain()
	failed := waitState(t, mp, st.ID, StateFailed)
	if !strings.Contains(failed.Error, "reloading map artifact") || !strings.Contains(failed.Error, "2048³") {
		t.Fatalf("failed job error %q, want the artifact reload error", failed.Error)
	}
	next, err := mp.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, mp, next.ID, StateDone)
}

// TestManagerCycleKillResume is the acceptance pin: a cycle job killed
// after ANY fsynced journal record — mid-refinement, between a cycle's
// map checkpoint and its FSC, anywhere — resumes to a bit-identical
// final map, FSC history, and per-view results. The kill is emulated
// by truncating the reference run's journal at every record boundary
// and restarting a manager on the truncated copy (exactly the state a
// kill -9 after that record's fsync leaves behind).
func TestManagerCycleKillResume(t *testing.T) {
	refDir := t.TempDir()
	refPath := filepath.Join(refDir, "jobs.jsonl")
	j, err := OpenJournal(refPath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Options{Stream: tinyStream(), Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	st, err := m.Submit(tinyCycleSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
	refFP := cycleFingerprint(t, m, st.ID)
	m.Drain()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")

	// Every prefix that contains at least the submit record is a valid
	// kill point; the full journal (terminal record included) must
	// replay to the same fingerprint without re-running anything.
	for p := 1; p <= len(lines); p++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "jobs.jsonl")
		if err := os.WriteFile(path, []byte(strings.Join(lines[:p], "")), 0o644); err != nil {
			t.Fatal(err)
		}
		jp, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("prefix %d: %v", p, err)
		}
		mp, err := NewManager(Options{Stream: tinyStream(), Journal: jp})
		if err != nil {
			t.Fatalf("prefix %d: %v", p, err)
		}
		mp.Start()
		waitState(t, mp, st.ID, StateDone)
		if got := cycleFingerprint(t, mp, st.ID); got != refFP {
			t.Errorf("prefix %d of %d: resumed run diverged from uninterrupted reference", p, len(lines))
		}
		mp.Drain()
		if err := jp.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
