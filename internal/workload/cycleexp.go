package workload

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/cycle"
	"repro/internal/geom"
)

// CycleOptions tunes the cycles-to-plateau experiment: the paper's
// outer loop run "until the 3D electron density map cannot be further
// improved", with internal/cycle's plateau rule deciding when that is.
type CycleOptions struct {
	// MaxCycles is the hard cap (0 selects 8 — the plateau rule is
	// expected to fire well before it).
	MaxCycles int
	// Levels is the per-cycle schedule depth (0 selects 3).
	Levels int
	// PlateauEps / PlateauWindow tune the stopping rule (zeros select
	// the cycle package defaults: 0.01 Å over 2 cycles).
	PlateauEps    float64
	PlateauWindow int
	// Stream shapes each refinement pass (zero value: GOMAXPROCS).
	Stream core.StreamOptions
}

func (o *CycleOptions) setDefaults() {
	if o.MaxCycles <= 0 {
		o.MaxCycles = 8
	}
	if o.Levels <= 0 {
		o.Levels = 3
	}
}

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

// RunCycleDriver executes the multi-cycle refine→reconstruct→FSC loop
// on the spec's dataset through internal/cycle — the same driver the
// job service runs, here fed directly for table generation.
func RunCycleDriver(spec DatasetSpec, opt CycleOptions) (*CycleDriverResult, error) {
	opt.setDefaults()
	ds := spec.Build()
	inits := ds.PerturbedOrientations(spec.InitError, spec.Seed+1)
	cds := cycle.Dataset{Views: ds.Images(), Inits: inits}
	if ds.HasCTF {
		cds.CTFs = ds.CTFs()
	}
	cfg := cycle.Config{
		L:             ds.L,
		PixelA:        ds.PixelA,
		Levels:        opt.Levels,
		MaxCycles:     opt.MaxCycles,
		PlateauEps:    opt.PlateauEps,
		PlateauWindow: opt.PlateauWindow,
		CTF:           ds.HasCTF,
		Stream:        opt.Stream,
	}
	out, err := cycle.Run(context.Background(), cds, cfg, cycle.State{}, cycle.Hooks{})
	if err != nil {
		return nil, fmt.Errorf("workload: cycle driver: %w", err)
	}
	var angSum float64
	for i, res := range out.Results {
		angSum += geom.AngularDistance(res.Orient, ds.Views[i].TrueOrient)
	}
	return &CycleDriverResult{
		Spec:       spec,
		History:    out.History,
		Stopped:    out.Stopped,
		MeanAngErr: angSum / float64(len(out.Results)),
	}, nil
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
