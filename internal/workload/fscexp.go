package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cycle"
	"repro/internal/fsc"
	"repro/internal/geom"
	"repro/internal/micrograph"
	"repro/internal/volume"
)

// fscCycles is the number of refine→reconstruct iterations (steps B
// and C of the structure-determination procedure) each method of the
// Figs. 4–6 experiment runs. The paper runs "hundreds"; two cycles
// already separate the methods cleanly.
const fscCycles = 2

// MethodOutcome holds one method's end-to-end result on a dataset.
type MethodOutcome struct {
	// CycleOutcome is the final cycle's assessment: the odd/even
	// half-map FSC 0.5 crossing (Fig. 4 procedure), the full map's
	// correlation against the ground-truth phantom, and the mean errors
	// against ground truth.
	CycleOutcome
	// Results are the final per-view solutions.
	Results []core.Result
	// Map is the full reconstruction from all views.
	Map *volume.Grid
	// Curve is the odd/even half-map FSC.
	Curve *fsc.Curve
	// PerLevel summarizes each schedule level's work (final cycle
	// only).
	PerLevel []core.LevelSummary
}

// FSCExperiment is the complete Figs. 2/3/5/6 result for one dataset:
// the old and new methods side by side.
type FSCExperiment struct {
	Spec     DatasetSpec
	Truth    *volume.Grid
	Old, New MethodOutcome
}

// RunFSC executes the full comparison on a dataset: synthesize views,
// hand both methods the same rough initial orientations, run fscCycles
// cycles of the outer loop each, and assess both with the odd/even FSC.
// The old method — the accuracy regime of symmetry-exploiting programs
// in routine use before sub-degree refinement — is the schedule's first
// level only (1°, 1 px) with centres left on the search grid; the new
// method is the paper's full schedule.
func RunFSC(spec DatasetSpec) (*FSCExperiment, error) {
	ds := spec.Build()
	inits := ds.PerturbedOrientations(spec.InitError, spec.Seed+1)
	exp := &FSCExperiment{Spec: spec, Truth: ds.Truth}
	var err error
	if exp.Old, err = fscMethod(ds, inits, 1, true); err != nil {
		return nil, fmt.Errorf("workload: old method: %w", err)
	}
	if exp.New, err = fscMethod(ds, inits, len(core.DefaultSchedule()), false); err != nil {
		return nil, fmt.Errorf("workload: new method: %w", err)
	}
	return exp, nil
}

// fscMethod runs one method of the comparison: fscCycles cycles at the
// given schedule depth, the plateau rule off.
func fscMethod(ds *micrograph.Dataset, inits []geom.Euler, levels int, gridCenters bool) (MethodOutcome, error) {
	run, err := runCycles(ds, inits, cycle.Config{
		Levels:        levels,
		MaxCycles:     fscCycles,
		PlateauWindow: -1,
		GridCenters:   gridCenters,
	})
	if err != nil {
		return MethodOutcome{}, err
	}
	return MethodOutcome{
		CycleOutcome: run.Cycles[len(run.Cycles)-1],
		Results:      run.Results,
		Map:          run.Map,
		Curve:        run.Curve,
		PerLevel:     run.Levels,
	}, nil
}
