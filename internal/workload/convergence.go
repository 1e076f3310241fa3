package workload

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/ctf"
	"repro/internal/fourier"
	"repro/internal/fsc"
	"repro/internal/geom"
	"repro/internal/reconstruct"
	"repro/internal/volume"
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

// RunConvergence iterates refine→reconstruct for maxCycles cycles with
// the full schedule, recording the per-cycle assessment. Unlike
// RunFSC it traces the trajectory rather than comparing methods.
func RunConvergence(spec DatasetSpec, opt FSCOptions, maxCycles int) (*ConvergenceResult, error) {
	if maxCycles < 1 {
		return nil, fmt.Errorf("workload: maxCycles must be ≥ 1")
	}
	opt.setDefaults()
	ds := spec.Build()
	orients := ds.PerturbedOrientations(spec.InitError, spec.Seed+1)
	centers := make([][2]float64, len(ds.Views))
	var ctfs []ctf.Params
	if ds.HasCTF {
		ctfs = ds.CTFs()
	}
	out := &ConvergenceResult{Spec: spec}
	recOpt := reconstruct.Options{WienerCTF: ds.HasCTF}

	for cycle := 0; cycle < maxCycles; cycle++ {
		ref, err := reconstruct.FromViews(ds.Images(), orients, centers, ctfs, recOpt)
		if err != nil {
			return nil, err
		}
		ref.SphericalMask(0.45 * float64(ds.L))
		dft := fourier.NewVolumeDFTPadded(ref, opt.Pad)
		cfg := core.DefaultConfig(ds.L)
		if ds.HasCTF {
			cfg.CorrectCTF = true
			cfg.CTFMode = ctf.PhaseFlip
			cfg.CTFWeightCuts = true
		}
		r, err := core.NewRefiner(dft, cfg)
		if err != nil {
			return nil, err
		}
		views := make([]*core.View, len(ds.Views))
		for i, v := range ds.Views {
			im := v.Image
			if centers[i][0] != 0 || centers[i][1] != 0 {
				f := fourier.ImageDFT(im)
				fourier.ShiftPhase(f, centers[i][0], centers[i][1])
				im = fourier.InverseImageDFT(f)
			}
			var p ctf.Params
			if ctfs != nil {
				p = ctfs[i]
			}
			views[i], err = r.PrepareView(im, p)
			if err != nil {
				return nil, err
			}
		}
		results, err := r.RefineAll(views, orients, opt.Workers)
		if err != nil {
			return nil, err
		}
		for i, res := range results {
			orients[i] = res.Orient
			centers[i][0] += res.Center[0]
			centers[i][1] += res.Center[1]
		}

		// Assess the cycle.
		full, err := reconstruct.FromViews(ds.Images(), orients, centers, ctfs, recOpt)
		if err != nil {
			return nil, err
		}
		odd, even, err := reconstruct.SplitHalves(ds.Images(), orients, centers, ctfs, recOpt)
		if err != nil {
			return nil, err
		}
		curve, err := fsc.Compute(odd, even, spec.PixelA)
		if err != nil {
			return nil, err
		}
		var angSum, cenSum float64
		for i, v := range ds.Views {
			angSum += geom.AngularDistance(orients[i], v.TrueOrient)
			cenSum += math.Hypot(centers[i][0]+v.TrueCenter[0], centers[i][1]+v.TrueCenter[1])
		}
		out.Cycles = append(out.Cycles, CycleOutcome{
			Cycle:       cycle + 1,
			ResolutionA: curve.ResolutionAt(0.5),
			TruthCC:     volume.Correlation(ds.Truth, full),
			MeanAngErr:  angSum / float64(len(ds.Views)),
			MeanCenErr:  cenSum / float64(len(ds.Views)),
		})
	}
	return out, nil
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
