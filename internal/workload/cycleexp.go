package workload

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/cycle"
	"repro/internal/fsc"
	"repro/internal/geom"
	"repro/internal/micrograph"
	"repro/internal/volume"
)

// CycleDriverResult is the outer-loop trajectory on one dataset.
type CycleDriverResult struct {
	Spec DatasetSpec
	// History is the per-cycle FSC record, in cycle order.
	History []cycle.CycleFSC
	// Stopped is why the loop ended (cycle.StopPlateau or
	// cycle.StopMaxCycles).
	Stopped string
	// MeanAngErr is the final mean angular error against ground truth
	// (degrees) — a measure the paper could not compute.
	MeanAngErr float64
}

// RunCycleDriver executes the cycles-to-plateau experiment: the
// paper's outer refine→reconstruct→FSC loop, run "until the 3D electron
// density map cannot be further improved", on the spec's dataset
// through internal/cycle — the same driver the job service runs, here
// fed directly for table generation. Each cycle refines over 3 schedule
// levels; cycle's default plateau rule decides when to stop, with a
// hard cap of 8 cycles it is expected to fire well before.
func RunCycleDriver(spec DatasetSpec) (*CycleDriverResult, error) {
	ds := spec.Build()
	run, err := runCycles(ds, ds.PerturbedOrientations(spec.InitError, spec.Seed+1), cycle.Config{
		Levels:    3,
		MaxCycles: 8,
	})
	if err != nil {
		return nil, err
	}
	return &CycleDriverResult{
		Spec:       spec,
		History:    run.History,
		Stopped:    run.Stopped,
		MeanAngErr: run.Cycles[len(run.Cycles)-1].MeanAngErr,
	}, nil
}

// CycleInputs turns a synthetic dataset and its initial orientations
// into cycle.Run's inputs — the one place that is spelled, for the job
// service and the experiments alike. cfg carries the caller's choices
// (levels, cycle cap, plateau rule, search, stream shape); the
// dataset's facts — box, pixel size, and CTF state iff the views carry
// it — are written over it.
func CycleInputs(ds *micrograph.Dataset, inits []geom.Euler, cfg cycle.Config) (cycle.Dataset, cycle.Config) {
	cds := cycle.Dataset{Views: ds.Images(), Inits: inits}
	if ds.HasCTF {
		cds.CTFs = ds.CTFs()
	}
	cfg.L, cfg.PixelA, cfg.CTF = ds.L, ds.PixelA, ds.HasCTF
	return cds, cfg
}

// cycleRun is one outer-loop run scored against the phantom: the
// driver's outcome plus one CycleOutcome per completed cycle.
type cycleRun struct {
	*cycle.Outcome
	Cycles []CycleOutcome
	// Levels is the final cycle's summary of each schedule level.
	Levels []core.LevelSummary
}

// runCycles is how every experiment runs the paper's outer loop: one
// fresh cycle.Run over the dataset, with hooks that score each
// completed cycle against the ground truth — mean errors of the pass's
// last level (OnLevel, which also keeps each schedule level's latest
// summary), the full map's truth correlation (OnMap), the FSC crossing
// (OnCycleEnd). The experiments differ only in cfg.
func runCycles(ds *micrograph.Dataset, inits []geom.Euler, cfg cycle.Config) (*cycleRun, error) {
	cds, cfg := CycleInputs(ds, inits, cfg)
	run := &cycleRun{Levels: make([]core.LevelSummary, cfg.Levels)}
	var (
		last    []core.Result
		truthCC float64
	)
	out, err := cycle.Run(context.Background(), cds, cfg, cycle.State{}, cycle.Hooks{
		OnLevel: func(_, global int, results []core.Result, sum core.LevelSummary) error {
			last = results
			run.Levels[global%cfg.Levels] = sum
			return nil
		},
		OnMap: func(_ int, m *volume.Grid) error {
			truthCC = volume.Correlation(ds.Truth, m)
			return nil
		},
		OnCycleEnd: func(rec cycle.CycleFSC, _ *fsc.Curve, _ string) error {
			row := CycleOutcome{Cycle: rec.Cycle + 1, ResolutionA: rec.ResolutionA, TruthCC: truthCC}
			row.MeanAngErr, row.MeanCenErr = meanErrors(ds, last)
			run.Cycles = append(run.Cycles, row)
			return nil
		},
	})
	if err != nil {
		return nil, fmt.Errorf("workload: cycle driver: %w", err)
	}
	run.Outcome = out
	return run, nil
}

// meanErrors are the mean angular (degrees) and centre (pixels) errors
// of a solution against the generator's ground truth — measures the
// paper could not compute.
func meanErrors(ds *micrograph.Dataset, results []core.Result) (ang, cen float64) {
	for i, v := range ds.Views {
		ang += geom.AngularDistance(results[i].Orient, v.TrueOrient)
		cen += math.Hypot(results[i].Center[0]+v.TrueCenter[0], results[i].Center[1]+v.TrueCenter[1])
	}
	n := float64(len(ds.Views))
	return ang / n, cen / n
}

// WritePlateau renders the cycles-to-plateau table: one row per cycle
// with the FSC 0.5 crossing and the plateau counter, then the stop
// verdict.
func WritePlateau(w io.Writer, res *CycleDriverResult) error {
	if _, err := fmt.Fprintf(w, "Cycles to plateau — %s (L=%d, %d views)\n",
		res.Spec.Name, res.Spec.L, res.Spec.NumViews); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-6s %12s %9s %9s %8s\n",
		"cycle", "FSC0.5 (Å)", "mean CC", "improved", "plateau"); err != nil {
		return err
	}
	for _, rec := range res.History {
		if _, err := fmt.Fprintf(w, "%-6d %12.2f %9.3f %9t %8d\n",
			rec.Cycle, rec.ResolutionA, rec.MeanCC, rec.Improved, rec.Plateau); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "stopped: %s after %d cycle(s); final mean angular error %.2f°\n",
		res.Stopped, len(res.History), res.MeanAngErr)
	return err
}
