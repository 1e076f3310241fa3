package workload

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/cycle"
	"repro/internal/fourier"
)

// DepthRow is the outcome of refining with the schedule truncated at
// one depth.
type DepthRow struct {
	// Levels is the schedule depth (1 = 1° only ... 4 = down to 0.002°).
	Levels int
	// FinestDeg is the finest angular resolution refined to.
	FinestDeg float64
	// MeanAngErr and MeanCenErr are ground-truth errors.
	MeanAngErr, MeanCenErr float64
	// ResolutionA is the odd/even FSC 0.5 crossing.
	ResolutionA float64
	// MatchingsPerView is the measured matching cost.
	MatchingsPerView float64
}

// DepthStudy answers the question the paper closes §5 with: "How fine
// the angular resolution should be used ... does it make any sense to
// refine the angles beyond 0.01°?" It refines the dataset once through
// the full schedule and assesses after every level — a level's result
// depends only on the schedule before it, so the state after level d is
// the schedule truncated at depth d — reporting accuracy and cost per
// depth; where the error plateaus, deeper refinement buys nothing.
// Refinement runs against the ground-truth map so the answer isolates
// the schedule from reference quality.
func DepthStudy(spec DatasetSpec) ([]DepthRow, error) {
	ds := spec.Build()
	r, err := core.NewRefiner(fourier.NewVolumeDFTPadded(ds.Truth, 2), core.DefaultConfig(spec.L))
	if err != nil {
		return nil, err
	}
	inits := ds.PerturbedOrientations(spec.InitError, spec.Seed+3)
	images := ds.Images()
	full := core.DefaultSchedule()

	var rows []DepthRow
	matchings := 0 // over levels 0…level
	assess := func(_, level int, results []core.Result, sum core.LevelSummary) error {
		curve, err := cycle.HalfMapFSC(cycle.Dataset{Views: images}, results, cycle.Config{PixelA: spec.PixelA})
		if err != nil {
			return err
		}
		matchings += sum.Matchings
		row := DepthRow{
			Levels:           level + 1,
			FinestDeg:        full[level].RAngular,
			ResolutionA:      curve.ResolutionAt(0.5),
			MatchingsPerView: float64(matchings) / float64(len(results)),
		}
		row.MeanAngErr, row.MeanCenErr = meanErrors(ds, results)
		rows = append(rows, row)
		return nil
	}
	_, _, err = cycle.RefinePass(context.Background(), r, core.SliceSource(images, nil, inits),
		cycle.InitialResults(inits), 0, 0, len(full), core.StreamOptions{}, cycle.Hooks{OnLevel: assess})
	return rows, err
}

// WriteDepthStudy renders the §5-question table.
func WriteDepthStudy(w io.Writer, spec DatasetSpec, rows []DepthRow) error {
	pr := &printer{w: w}
	pr.printf("§5 question — schedule depth study, %s (refined against ground truth)\n", spec.Name)
	pr.printf("%8s %12s %12s %14s %12s %16s\n",
		"levels", "finest (°)", "ang err (°)", "cen err (px)", "res (Å)", "matchings/view")
	for _, r := range rows {
		pr.printf("%8d %12.4g %12.3f %14.3f %12.2f %16.0f\n",
			r.Levels, r.FinestDeg, r.MeanAngErr, r.MeanCenErr, r.ResolutionA, r.MatchingsPerView)
	}
	return pr.err
}
