package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/cycle"
)

// The checkpoint journal is an append-only JSONL file: one record per
// line, written and fsynced before the manager acknowledges the event
// it describes. JobReplay.apply says what each of the six kinds means
// and when it may follow the records before it (DESIGN §11.4 has the
// table). A record counts only once its '\n' is on disk: append writes
// the record and its newline in one Write before the fsync that
// acknowledges it. Replay therefore ignores an unterminated final line
// (a crash mid-append), and OpenJournal cuts it off so the next record
// starts a line of its own; a malformed line anywhere earlier is
// corruption and an error. Because core.Result and fsc/cycle records
// round-trip through encoding/json without losing a bit (float64
// fields only), a journal resume reproduces the uninterrupted run
// exactly.

// journalRecord is one line of the journal.
type journalRecord struct {
	Kind string `json:"kind"` // "submit" | "level" | "cycle_start" | "cycle_map" | "cycle_end" | "terminal"
	ID   string `json:"id"`
	// Submit fields: the normalized spec.
	Spec *JobSpec `json:"spec,omitempty"`
	// Level fields: the zero-based schedule level just completed —
	// global across a cycle job's cycles (cycle·Levels + level) — and
	// the per-view results after it, every centre-shift increment
	// included: exactly the priors RefineStreamLevels resumes from.
	Level   int           `json:"level,omitempty"`
	Results []core.Result `json:"results,omitempty"`
	// Cycle fields: the zero-based cycle index of the cycle_start/
	// cycle_map/cycle_end kinds, the map artifact's path and content
	// digest (reconstruct.MapDigest, verified before a resume trusts
	// the artifact), the cycle's FSC record and why the loop stopped.
	Cycle     int             `json:"cycle,omitempty"`
	MapPath   string          `json:"map_path,omitempty"`
	MapDigest string          `json:"map_digest,omitempty"`
	FSC       *cycle.CycleFSC `json:"fsc,omitempty"`
	Stopped   string          `json:"stopped,omitempty"`
	// Terminal fields.
	State   State    `json:"state,omitempty"`
	Error   string   `json:"error,omitempty"`
	Summary *Summary `json:"summary,omitempty"`
}

// JobReplay is one job's durable state: the fold of its journal
// records through apply, on replay and on the live path alike.
type JobReplay struct {
	ID   string
	Spec JobSpec // as journaled
	// LevelsDone is the number of checkpointed levels (global across
	// cycles for cycle jobs); Results holds the per-view results after
	// the last of them (nil when none).
	LevelsDone int
	Results    []core.Result
	// Cycle-job fields: how many cycles have started (cycle_start), the
	// completed cycles' FSC records (cycle_end), the last journaled map
	// artifact (LastMapCycle is -1 when none), and the journaled stop
	// reason.
	CyclesStarted int
	History       []cycle.CycleFSC
	LastMapCycle  int
	LastMapPath   string
	LastMapDigest string
	Stopped       string
	// State is the terminal state if one was journaled, else
	// StatePending — the job should be re-queued.
	State   State
	Error   string
	Summary *Summary
}

// apply folds one record into the job's state, or says why the record
// cannot follow the ones already folded; a rejected record leaves the
// state as it was. It is the one place that knows what each record
// kind means and when it is valid (DESIGN §11.4 tabulates the rules).
// A refine job's MaxCycles is 0, so it takes no cycle record.
func (s *JobReplay) apply(rec journalRecord) error {
	journaled := s.Spec
	switch {
	case rec.Kind == "submit" && s.ID != "":
		return fmt.Errorf("duplicate submit for %s", rec.ID)
	case rec.Kind == "submit" && (rec.ID == "" || rec.Spec == nil):
		return fmt.Errorf("submit without id or spec")
	case rec.Kind == "submit":
		journaled = *rec.Spec
	case s.ID == "":
		return fmt.Errorf("%s for unknown job %s", rec.Kind, rec.ID)
	case s.State.Terminal() || (s.Stopped != "" && rec.Kind != "terminal"):
		return fmt.Errorf("job %s %s past the job's end (state %s, loop stopped %q)", s.ID, rec.Kind, s.State, s.Stopped)
	}
	spec, _, err := journaled.normalize()
	if err != nil {
		return fmt.Errorf("job %s: %w", rec.ID, err)
	}
	outOfOrder := func() error {
		return fmt.Errorf("job %s: %s job's %s (level %d, cycle %d) after %d levels, %d cycles started, %d ended",
			s.ID, spec.Type, rec.Kind, rec.Level, rec.Cycle, s.LevelsDone, s.CyclesStarted, len(s.History))
	}
	// The cycle a map or an end closes: started, not ended, levels done.
	closes := rec.Cycle == s.CyclesStarted-1 && rec.Cycle == len(s.History) && s.LevelsDone == (rec.Cycle+1)*spec.Levels
	switch rec.Kind {
	case "submit":
		*s = JobReplay{ID: rec.ID, Spec: journaled, State: StatePending, LastMapCycle: -1}
	case "level":
		switch {
		case rec.Level != s.LevelsDone || rec.Level >= spec.levelsTotal(),
			spec.Type == TypeCycle && rec.Level/spec.Levels != s.CyclesStarted-1:
			return outOfOrder()
		case len(rec.Results) != spec.Views:
			return fmt.Errorf("job %s level %d carries %d results for %d views", s.ID, rec.Level, len(rec.Results), spec.Views)
		}
		s.LevelsDone++
		s.Results = rec.Results
	case "cycle_start":
		if rec.Cycle != s.CyclesStarted || rec.Cycle != len(s.History) || rec.Cycle >= spec.MaxCycles {
			return outOfOrder()
		}
		s.CyclesStarted++
	case "cycle_map":
		switch {
		case !closes:
			return outOfOrder()
		case rec.MapPath == "" || rec.MapDigest == "":
			return fmt.Errorf("job %s cycle_map %d missing path or digest", s.ID, rec.Cycle)
		}
		s.LastMapCycle = rec.Cycle
		s.LastMapPath = rec.MapPath
		s.LastMapDigest = rec.MapDigest
	case "cycle_end":
		// The loop stops on a plateau, else on its last cycle at the cap.
		noPlateau := ""
		if rec.Cycle == spec.MaxCycles-1 {
			noPlateau = cycle.StopMaxCycles
		}
		switch {
		case !closes:
			return outOfOrder()
		case rec.FSC == nil || rec.FSC.Cycle != rec.Cycle:
			return fmt.Errorf("job %s cycle_end %d without its fsc record", s.ID, rec.Cycle)
		case rec.Stopped != noPlateau && rec.Stopped != cycle.StopPlateau:
			return fmt.Errorf("job %s cycle_end %d of %d stopped %q", s.ID, rec.Cycle, spec.MaxCycles, rec.Stopped)
		}
		s.History = append(s.History, *rec.FSC)
		s.Stopped = rec.Stopped
	case "terminal":
		// A job fails or is cancelled at any point, but is done only
		// once its work is: every level of a refine job, a stop reason
		// on a cycle job.
		switch {
		case !rec.State.Terminal():
			return fmt.Errorf("job %s non-terminal state %q", s.ID, rec.State)
		case rec.State == StateDone && spec.Type == TypeRefine && s.LevelsDone != spec.levelsTotal():
			return fmt.Errorf("job %s done after %d of %d levels", s.ID, s.LevelsDone, spec.levelsTotal())
		case rec.State == StateDone && spec.Type == TypeCycle && s.Stopped == "":
			return fmt.Errorf("job %s done before its cycle loop stopped", s.ID)
		}
		s.State = rec.State
		s.Error = rec.Error
		s.Summary = rec.Summary
	default:
		return fmt.Errorf("job %s unknown record kind %q", s.ID, rec.Kind)
	}
	return nil
}

// Journal is the append side of the checkpoint log. Methods are not
// goroutine-safe; the Manager serializes access. The exported
// appenders write records as given; the Manager writes through
// commitLocked, which checks each record with the fold first.
type Journal struct {
	f      *os.File
	path   string
	bytes  int64
	replay []JobReplay
}

// OpenJournal opens (creating if absent) the journal at path, replays
// its records, truncates an unterminated final line, and positions the
// file for appending.
func OpenJournal(path string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("serve: reading journal: %w", err)
	}
	replay, err := replayJournal(data)
	if err != nil {
		return nil, fmt.Errorf("serve: journal %s: %w", path, err)
	}
	keep := bytes.LastIndexByte(data, '\n') + 1
	if keep < len(data) {
		if err := os.Truncate(path, int64(keep)); err != nil {
			return nil, fmt.Errorf("serve: truncating torn journal tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	return &Journal{f: f, path: path, bytes: int64(keep), replay: replay}, nil
}

// Replay returns the per-job state reconstructed at open, in first-
// submission order.
func (j *Journal) Replay() []JobReplay { return j.replay }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Size returns the journal's on-disk size in bytes: what was kept at
// open (a torn tail is truncated) plus everything appended since. The
// manager mirrors it into the serve.journal.bytes gauge after each
// checkpoint.
func (j *Journal) Size() int64 { return j.bytes }

// Close closes the underlying file.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// append writes one record as a JSON line and syncs it to disk before
// returning, so an acknowledged event survives a kill.
func (j *Journal) append(rec journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: encoding journal record: %w", err)
	}
	data = append(data, '\n')
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("serve: appending journal record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("serve: syncing journal: %w", err)
	}
	j.bytes += int64(len(data))
	return nil
}

// Submit journals the acceptance of a job.
func (j *Journal) Submit(id string, spec JobSpec) error {
	return j.append(journalRecord{Kind: "submit", ID: id, Spec: &spec})
}

// Level journals the completion of schedule level `level` (zero-based,
// global across cycles) with the per-view results after it.
func (j *Journal) Level(id string, level int, results []core.Result) error {
	return j.append(journalRecord{Kind: "level", ID: id, Level: level, Results: results})
}

// CycleStart journals the beginning of cycle c's refinement pass.
func (j *Journal) CycleStart(id string, c int) error {
	return j.append(journalRecord{Kind: "cycle_start", ID: id, Cycle: c})
}

// CycleMap journals cycle c's reconstructed-map artifact: where it was
// serialized and its content digest.
func (j *Journal) CycleMap(id string, c int, path, digest string) error {
	return j.append(journalRecord{Kind: "cycle_map", ID: id, Cycle: c, MapPath: path, MapDigest: digest})
}

// CycleEnd journals cycle c's FSC summary and, when the outer loop
// ended at this cycle, the stop reason.
func (j *Journal) CycleEnd(id string, rec cycle.CycleFSC, stopped string) error {
	return j.append(journalRecord{Kind: "cycle_end", ID: id, Cycle: rec.Cycle, FSC: &rec, Stopped: stopped})
}

// Terminal journals a job reaching a final state.
func (j *Journal) Terminal(id string, state State, errMsg string, sum *Summary) error {
	return j.append(journalRecord{Kind: "terminal", ID: id, State: state, Error: errMsg, Summary: sum})
}

// replayJournal folds the journal bytes into per-job state through
// JobReplay.apply. Only '\n'-terminated lines are records: an
// unterminated final line was never acknowledged, so it is dropped even
// when it parses. A malformed terminated line, or one the fold rejects,
// is an error.
func replayJournal(data []byte) ([]JobReplay, error) {
	var (
		order []string
		jobs  = map[string]*JobReplay{}
	)
	lines := bytes.Split(data, []byte("\n"))
	// The last split element follows the last '\n': empty for a
	// well-formed journal, a torn tail otherwise.
	for i, line := range lines[:len(lines)-1] {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("journal line %d: %w", i+1, err)
		}
		jb := jobs[rec.ID]
		if jb == nil {
			jb = &JobReplay{}
			jobs[rec.ID] = jb
			order = append(order, rec.ID)
		}
		if err := jb.apply(rec); err != nil {
			return nil, fmt.Errorf("journal line %d: %w", i+1, err)
		}
	}
	out := make([]JobReplay, 0, len(order))
	for _, id := range order {
		out = append(out, *jobs[id])
	}
	return out, nil
}
