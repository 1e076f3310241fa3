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
// it describes. Six kinds exist:
//
//	submit      — a job was accepted (id + normalized spec)
//	level       — one schedule level finished; carries the full
//	              per-view results including every centre-shift
//	              increment, i.e. exactly the priors
//	              RefineStreamLevels resumes from. Cycle jobs journal
//	              the GLOBAL level index (cycle·Levels + level), so
//	              levels stay contiguous from 0 across cycles.
//	cycle_start — a cycle job began cycle c's refinement pass
//	cycle_map   — cycle c's full map was reconstructed and serialized;
//	              carries the artifact path and the map's content
//	              digest (reconstruct.MapDigest), which a resume
//	              verifies before trusting the artifact
//	cycle_end   — cycle c's odd/even FSC summary and, if the loop
//	              ended here, why
//	terminal    — the job reached done/failed/cancelled
//
// A record counts only once its '\n' is on disk: append writes the
// record and its newline in one Write before the fsync that
// acknowledges it. Replay therefore ignores an unterminated final line
// (a crash mid-append), and OpenJournal cuts it off so the next record
// starts a line of its own; a malformed line anywhere earlier is
// corruption and an error.
// Because core.Result and fsc/cycle records round-trip through
// encoding/json without losing a bit (float64 fields only), a journal
// resume reproduces the uninterrupted run exactly.

// journalRecord is one line of the journal.
type journalRecord struct {
	Kind string `json:"kind"` // "submit" | "level" | "cycle_start" | "cycle_map" | "cycle_end" | "terminal"
	ID   string `json:"id"`
	// Submit fields.
	Spec *JobSpec `json:"spec,omitempty"`
	// Level fields: the zero-based (global) schedule level just
	// completed and the per-view results after it.
	Level   int           `json:"level,omitempty"`
	Results []core.Result `json:"results,omitempty"`
	// Cycle fields. Cycle is the zero-based cycle index of the
	// cycle_start/cycle_map/cycle_end kinds.
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

// JobReplay is the state of one job reconstructed from the journal.
type JobReplay struct {
	ID   string
	Spec JobSpec
	// LevelsDone is the number of checkpointed levels (global across
	// cycles for cycle jobs); Results holds the per-view results after
	// the last of them (nil when none).
	LevelsDone int
	Results    []core.Result
	// Cycle-job fields: how many cycles have started (cycle_start) and
	// completed (cycle_end), the completed cycles' FSC records, the
	// last journaled map artifact (LastMapCycle is -1 when none), and
	// the journaled stop reason.
	CyclesStarted int
	CyclesDone    int
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

// Journal is the append side of the checkpoint log. Methods are not
// goroutine-safe; the Manager serializes access.
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

// replayJournal folds the journal bytes into per-job state. Only
// '\n'-terminated lines are records: an unterminated final line was
// never acknowledged, so it is dropped even when it parses. A malformed
// terminated line is an error.
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
		switch rec.Kind {
		case "submit":
			if jb != nil {
				return nil, fmt.Errorf("journal line %d: duplicate submit for %s", i+1, rec.ID)
			}
			if rec.Spec == nil {
				return nil, fmt.Errorf("journal line %d: submit without spec", i+1)
			}
			jobs[rec.ID] = &JobReplay{ID: rec.ID, Spec: *rec.Spec, State: StatePending, LastMapCycle: -1}
			order = append(order, rec.ID)
		case "level":
			if jb == nil {
				return nil, fmt.Errorf("journal line %d: level for unknown job %s", i+1, rec.ID)
			}
			if rec.Level != jb.LevelsDone {
				return nil, fmt.Errorf("journal line %d: job %s level %d after %d levels", i+1, rec.ID, rec.Level, jb.LevelsDone)
			}
			jb.LevelsDone++
			jb.Results = rec.Results
		case "cycle_start":
			if jb == nil {
				return nil, fmt.Errorf("journal line %d: cycle_start for unknown job %s", i+1, rec.ID)
			}
			if rec.Cycle != jb.CyclesStarted {
				return nil, fmt.Errorf("journal line %d: job %s cycle_start %d after %d started cycles", i+1, rec.ID, rec.Cycle, jb.CyclesStarted)
			}
			jb.CyclesStarted++
		case "cycle_map":
			if jb == nil {
				return nil, fmt.Errorf("journal line %d: cycle_map for unknown job %s", i+1, rec.ID)
			}
			if rec.Cycle != jb.CyclesStarted-1 {
				return nil, fmt.Errorf("journal line %d: job %s cycle_map %d with %d started cycles", i+1, rec.ID, rec.Cycle, jb.CyclesStarted)
			}
			if rec.MapPath == "" || rec.MapDigest == "" {
				return nil, fmt.Errorf("journal line %d: job %s cycle_map %d missing path or digest", i+1, rec.ID, rec.Cycle)
			}
			jb.LastMapCycle = rec.Cycle
			jb.LastMapPath = rec.MapPath
			jb.LastMapDigest = rec.MapDigest
		case "cycle_end":
			if jb == nil {
				return nil, fmt.Errorf("journal line %d: cycle_end for unknown job %s", i+1, rec.ID)
			}
			if rec.Cycle != jb.CyclesDone {
				return nil, fmt.Errorf("journal line %d: job %s cycle_end %d after %d done cycles", i+1, rec.ID, rec.Cycle, jb.CyclesDone)
			}
			if rec.FSC == nil {
				return nil, fmt.Errorf("journal line %d: job %s cycle_end %d without fsc record", i+1, rec.ID, rec.Cycle)
			}
			jb.CyclesDone++
			jb.History = append(jb.History, *rec.FSC)
			jb.Stopped = rec.Stopped
		case "terminal":
			if jb == nil {
				return nil, fmt.Errorf("journal line %d: terminal for unknown job %s", i+1, rec.ID)
			}
			if !rec.State.Terminal() {
				return nil, fmt.Errorf("journal line %d: non-terminal state %q", i+1, rec.State)
			}
			jb.State = rec.State
			jb.Error = rec.Error
			jb.Summary = rec.Summary
		default:
			return nil, fmt.Errorf("journal line %d: unknown record kind %q", i+1, rec.Kind)
		}
	}
	out := make([]JobReplay, 0, len(order))
	for _, id := range order {
		out = append(out, *jobs[id])
	}
	return out, nil
}
