// Package serve is the refinement job service: a queued, checkpointed,
// backpressured front end that runs orientation refinements (the full
// multi-resolution schedule of internal/core) as asynchronous jobs
// behind a stdlib net/http API.
//
// The package is deliberately wall-clock-free — it is listed in the
// replint simclock scope — so job scheduling is reproducible: all
// timestamps come from the manager's logical clock (a monotonic tick
// counter, Manager.clock), and all randomness from the seeds carried
// in the job spec. Anything that genuinely needs real time (HTTP
// timeouts, signal handling, artificial level delays for smoke tests)
// lives in cmd/refined.
//
// A job walks the states
//
//	pending → running → done | failed | cancelled
//
// with one checkpoint after every completed schedule level: the
// journal records each level's refined orientations together with the
// centre-shift increments applied to every view's band, which is
// exactly the state RefineStreamLevels needs to resume the schedule
// bit-identically after a crash (see internal/core).
//
// One fold owns a job's durable state: JobReplay.apply is the only code
// that knows what a journal record means and when it may follow the
// ones before it. OpenJournal folds the file through it; the live path
// (Manager.commitLocked) checks each record with it, appends the record
// and then applies it, so a running job's state is always what a
// restart would replay, and the service never writes a journal it
// cannot reopen.
//
// The level loop is not here. Both job types run cycle.RefinePass — a
// refine job directly, on a refiner over the dataset's truth map; a
// cycle job through cycle.Run — with the same three hooks
// (Manager.levelHooks: drain poll, level_start event, level
// checkpoint), and Manager.conclude is the one place a finished run
// becomes cancelled, failed, parked or done.
package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cycle"
	"repro/internal/geom"
	"repro/internal/workload"
)

// State is a job's lifecycle state.
type State string

// The job lifecycle: pending (queued or awaiting resume), running,
// and the three terminal states.
const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job types. A refine job runs one pass over the level schedule
// against the ground-truth reference (the original service). A cycle
// job closes the paper's outer loop: it alternates a full refinement
// pass, a reconstruction, and an odd/even FSC, feeding each cycle's
// map back as the next cycle's reference, until the 0.5 crossing
// plateaus or MaxCycles is reached (see internal/cycle).
const (
	TypeRefine = "refine"
	TypeCycle  = "cycle"
)

// JobSpec is the client-supplied description of one refinement job. It
// reuses the workload.DatasetSpec vocabulary: a named dataset, an
// optional shrink factor, and the perturbation of the initial
// orientations. Everything else about the computation (phantom, SNR,
// jitter, generator seed) is pinned by the named spec, so a JobSpec is
// a complete, reproducible statement of the work.
type JobSpec struct {
	// Type selects the job kind: TypeRefine (the default) or
	// TypeCycle.
	Type string `json:"type,omitempty"`
	// Dataset names the workload spec ("sindbis", "reo", "asymmetric";
	// the long "-like" forms are accepted too).
	Dataset string `json:"dataset"`
	// Scale shrinks the dataset by this factor (box size and view
	// count, see workload.DatasetSpec.Scaled). ≤1 or omitted keeps the
	// spec's native size.
	Scale float64 `json:"scale,omitempty"`
	// Views caps the number of views refined (0 = the spec's count).
	Views int `json:"views,omitempty"`
	// Levels is how many levels of the paper's schedule to run
	// (1–4; 0 selects 2, enough to exercise a checkpoint).
	Levels int `json:"levels,omitempty"`
	// Pad is the reference-map Fourier padding factor (0 selects 2).
	Pad int `json:"pad,omitempty"`
	// InitError is the per-axis perturbation (degrees) of the initial
	// orientations handed to refinement; 0 selects the dataset spec's
	// own InitError.
	InitError float64 `json:"init_error,omitempty"`
	// InitSeed seeds the perturbation.
	InitSeed int64 `json:"init_seed,omitempty"`
	// Search selects the orientation-search mode of internal/core:
	// "adaptive" (the default) or "exhaustive". Journaled with the
	// spec, so a resumed job replays the same search path.
	Search string `json:"search,omitempty"`
	// SearchSeed seeds the adaptive search's deterministic probe
	// streams (ignored under "exhaustive").
	SearchSeed int64 `json:"search_seed,omitempty"`
	// MaxCycles caps a cycle job's refine→reconstruct→FSC iterations
	// (0 selects 4; refine jobs must leave it 0).
	MaxCycles int `json:"max_cycles,omitempty"`
	// PlateauEps is the minimum FSC 0.5-crossing improvement (Å) that
	// counts as progress for a cycle job (0 selects 0.01).
	PlateauEps float64 `json:"plateau_eps,omitempty"`
	// PlateauWindow is how many consecutive non-improving cycles stop
	// a cycle job (0 selects 2; -1 disables plateau stopping).
	PlateauWindow int `json:"plateau_window,omitempty"`
}

// levelsTotal is the job's total refinement-level count: the schedule
// length, times the cycle cap for cycle jobs.
func (s JobSpec) levelsTotal() int {
	if s.Type == TypeCycle {
		return s.Levels * s.MaxCycles
	}
	return s.Levels
}

// normalize validates the spec and fills defaults, returning the
// resolved workload spec alongside the normalized job spec.
func (s JobSpec) normalize() (JobSpec, workload.DatasetSpec, error) {
	wspec, err := workload.SpecByName(s.Dataset)
	if err != nil {
		return s, wspec, err
	}
	if s.Scale < 0 {
		return s, wspec, fmt.Errorf("serve: negative scale %g", s.Scale)
	}
	if s.Scale > 1 {
		wspec = wspec.Scaled(s.Scale)
	}
	if s.Views < 0 {
		return s, wspec, fmt.Errorf("serve: negative view count %d", s.Views)
	}
	if s.Views > 0 && s.Views < wspec.NumViews {
		wspec.NumViews = s.Views
	}
	s.Views = wspec.NumViews
	if s.Levels == 0 {
		s.Levels = 2
	}
	if max := len(core.DefaultSchedule()); s.Levels < 1 || s.Levels > max {
		return s, wspec, fmt.Errorf("serve: levels %d outside 1..%d", s.Levels, max)
	}
	if s.Pad == 0 {
		s.Pad = 2
	}
	if s.Pad < 1 || s.Pad > 4 {
		return s, wspec, fmt.Errorf("serve: pad %d outside 1..4", s.Pad)
	}
	if s.InitError < 0 {
		return s, wspec, fmt.Errorf("serve: negative init_error %g", s.InitError)
	}
	if s.InitError == 0 {
		s.InitError = wspec.InitError
	}
	switch s.Search {
	case "":
		s.Search = string(core.SearchAdaptive)
	case string(core.SearchAdaptive), string(core.SearchExhaustive):
	default:
		return s, wspec, fmt.Errorf("serve: unknown search mode %q", s.Search)
	}
	switch s.Type {
	case "":
		s.Type = TypeRefine
		fallthrough
	case TypeRefine:
		if s.MaxCycles != 0 || s.PlateauEps != 0 || s.PlateauWindow != 0 {
			return s, wspec, fmt.Errorf("serve: cycle parameters on a %s job", TypeRefine)
		}
	case TypeCycle:
		if s.Views < 2 {
			return s, wspec, fmt.Errorf("serve: cycle job resolves to %d views, need at least 2 for odd/even halves", s.Views)
		}
		if s.MaxCycles == 0 {
			s.MaxCycles = 4
		}
		if s.MaxCycles < 1 || s.MaxCycles > 64 {
			return s, wspec, fmt.Errorf("serve: max_cycles %d outside 1..64", s.MaxCycles)
		}
		if s.PlateauEps < 0 {
			return s, wspec, fmt.Errorf("serve: negative plateau_eps %g", s.PlateauEps)
		}
		if s.PlateauEps == 0 {
			s.PlateauEps = 0.01
		}
		if s.PlateauWindow < -1 {
			return s, wspec, fmt.Errorf("serve: plateau_window %d below -1", s.PlateauWindow)
		}
		if s.PlateauWindow == 0 {
			s.PlateauWindow = 2
		}
	default:
		return s, wspec, fmt.Errorf("serve: unknown job type %q", s.Type)
	}
	return s, wspec, nil
}

// Shape is the resolved refinement-pass shape a job runs with,
// reported so clients can see what parallelism the service applied.
type Shape struct {
	// Workers is the number of views a job refines at once.
	Workers int `json:"workers"`
}

// Summary condenses a finished job against the dataset's ground truth.
type Summary struct {
	// MeanAngularError and MaxAngularError are in degrees, against the
	// synthetic ground-truth orientations.
	MeanAngularError float64 `json:"mean_angular_error_deg"`
	MaxAngularError  float64 `json:"max_angular_error_deg"`
	// MeanDistance is the mean final matching distance.
	MeanDistance float64 `json:"mean_distance"`
}

// summarize scores refined results against ground truth.
func summarize(results []core.Result, truth []geom.Euler) *Summary {
	if len(results) == 0 || len(results) != len(truth) {
		return nil
	}
	var sum Summary
	for i, res := range results {
		d := geom.AngularDistance(res.Orient, truth[i])
		sum.MeanAngularError += d
		if d > sum.MaxAngularError {
			sum.MaxAngularError = d
		}
		sum.MeanDistance += res.Distance
	}
	sum.MeanAngularError /= float64(len(results))
	sum.MeanDistance /= float64(len(results))
	return &sum
}

// JobStatus is the externally visible snapshot of one job — what
// GET /jobs/{id} returns.
type JobStatus struct {
	ID    string  `json:"id"`
	State State   `json:"state"`
	Spec  JobSpec `json:"spec"`
	// Views is the number of views the job refines.
	Views int `json:"views"`
	// LevelsDone counts completed (checkpointed) schedule levels;
	// LevelsTotal is the job's full schedule length.
	LevelsDone  int `json:"levels_done"`
	LevelsTotal int `json:"levels_total"`
	// Shape is the refinement-pass shape the service runs jobs with.
	Shape Shape `json:"shape"`
	// SubmittedAt is the logical-clock tick the job was accepted at.
	SubmittedAt float64 `json:"submitted_at"`
	// Resumed reports that the job was recovered from a journal after
	// a restart rather than submitted to this process.
	Resumed bool `json:"resumed,omitempty"`
	// Error carries the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// Summary is present once the job is done.
	Summary *Summary `json:"summary,omitempty"`
	// Levels holds the latest summary of each completed schedule level
	// (a cycle job's from its most recent cycle): this job's search
	// health, e.g. how many views ended a level at the slide cap.
	Levels []core.LevelSummary `json:"levels,omitempty"`
	// Cycle is present on cycle jobs: the outer-loop progress.
	Cycle *CycleStatus `json:"cycle,omitempty"`
}

// CycleStatus is the outer-loop slice of a cycle job's status.
type CycleStatus struct {
	// Done counts completed cycles (refine + reconstruct + FSC); Max
	// is the job's hard cycle cap.
	Done int `json:"done"`
	Max  int `json:"max"`
	// ResolutionA is the last completed cycle's FSC 0.5 crossing in Å
	// (0 until a cycle completes).
	ResolutionA float64 `json:"resolution_a,omitempty"`
	// Plateau is the consecutive non-improving cycle count.
	Plateau int `json:"plateau"`
	// Stopped is why the loop ended (cycle.StopPlateau or
	// cycle.StopMaxCycles), once it has.
	Stopped string `json:"stopped,omitempty"`
	// MapPath and MapDigest identify the last journaled map artifact.
	MapPath   string `json:"map_path,omitempty"`
	MapDigest string `json:"map_digest,omitempty"`
	// History holds every completed cycle's FSC record.
	History []cycle.CycleFSC `json:"history,omitempty"`
}
