package workload

import (
	"repro/internal/core"
	"repro/internal/cycle"
)

// CycleOutcome records the state after one refine→reconstruct cycle.
type CycleOutcome struct {
	Cycle int
	// ResolutionA is the odd/even FSC 0.5 crossing after the cycle.
	ResolutionA float64
	// TruthCC is the full map's correlation with the ground truth.
	TruthCC float64
	// MeanAngErr / MeanCenErr are ground-truth errors of the current
	// orientations.
	MeanAngErr, MeanCenErr float64
}

// ConvergenceResult traces refinement across cycles — the paper's
// outer iteration ("steps B and C are executed iteratively until the
// 3D electron density map cannot be further improved").
type ConvergenceResult struct {
	Spec   DatasetSpec
	Cycles []CycleOutcome
}

// Converged reports whether the final cycles stopped improving the
// truth correlation by more than tol — the paper's stopping criterion
// made explicit.
func (c *ConvergenceResult) Converged(tol float64) bool {
	n := len(c.Cycles)
	if n < 2 {
		return false
	}
	return c.Cycles[n-1].TruthCC-c.Cycles[n-2].TruthCC < tol
}

// RunConvergence runs maxCycles cycles of the outer loop with the full
// schedule and the plateau rule off, recording the per-cycle
// assessment. Unlike RunFSC it traces the trajectory rather than
// comparing methods.
func RunConvergence(spec DatasetSpec, maxCycles int) (*ConvergenceResult, error) {
	ds := spec.Build()
	run, err := runCycles(ds, ds.PerturbedOrientations(spec.InitError, spec.Seed+1), cycle.Config{
		Levels:        len(core.DefaultSchedule()),
		MaxCycles:     maxCycles,
		PlateauWindow: -1,
	})
	if err != nil {
		return nil, err
	}
	return &ConvergenceResult{Spec: spec, Cycles: run.Cycles}, nil
}

// WriteConvergence renders the per-cycle trajectory.
func (c *ConvergenceResult) Write(w interface{ Write([]byte) (int, error) }) error {
	pr := &printer{w: w}
	pr.printf("refinement convergence, %s (%d views of %d px)\n",
		c.Spec.Name, c.Spec.NumViews, c.Spec.L)
	pr.printf("%6s %12s %10s %12s %12s\n", "cycle", "res (Å)", "truth cc", "ang err (°)", "cen err (px)")
	for _, cy := range c.Cycles {
		pr.printf("%6d %12.2f %10.4f %12.3f %12.3f\n",
			cy.Cycle, cy.ResolutionA, cy.TruthCC, cy.MeanAngErr, cy.MeanCenErr)
	}
	return pr.err
}
