package workload

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/ctf"
	"repro/internal/fourier"
	"repro/internal/fsc"
	"repro/internal/geom"
	"repro/internal/micrograph"
	"repro/internal/reconstruct"
	"repro/internal/volume"
)

// FSCOptions tunes the Figs. 4–6 experiment.
type FSCOptions struct {
	// Cycles is the number of refine→reconstruct iterations (steps B
	// and C of the structure-determination procedure). The paper runs
	// "hundreds"; two cycles already separate the methods cleanly.
	Cycles int
	// Workers bounds refinement concurrency; ≤0 uses GOMAXPROCS.
	Workers int
	// OldFloorAngular / OldFloorCenter set the legacy method's
	// accuracy floor (see legacySchedule). Zeros select 1° and
	// 1 px — the accuracy regime of symmetry-exploiting programs in
	// routine use before sub-degree refinement.
	OldFloorAngular, OldFloorCenter float64
	// Pad is the spectrum oversampling for matching; 0 selects 2.
	Pad int
	// RMapFracPerCycle optionally ladders the matching resolution
	// across cycles, per the paper's outer loop ("then we increase
	// the resolution and repeat the entire procedure"): cycle i
	// matches only up to RMapFracPerCycle[i]·(0.8·Nyquist). Cycles
	// beyond the slice length use the full band; empty disables
	// laddering.
	RMapFracPerCycle []float64
}

func (o *FSCOptions) setDefaults() {
	if o.Cycles <= 0 {
		o.Cycles = 2
	}
	if o.OldFloorAngular <= 0 {
		o.OldFloorAngular = 1.0
	}
	if o.OldFloorCenter <= 0 {
		o.OldFloorCenter = 1.0
	}
	if o.Pad <= 0 {
		o.Pad = 2
	}
}

// MethodOutcome holds one method's end-to-end result on a dataset.
type MethodOutcome struct {
	// Orients and Centers are the final per-view solutions.
	Orients []geom.Euler
	Centers [][2]float64
	// Map is the full reconstruction from all views.
	Map *volume.Grid
	// Curve is the odd/even half-map FSC (Fig. 4 procedure).
	Curve *fsc.Curve
	// ResolutionA is the curve's 0.5 crossing in Å.
	ResolutionA float64
	// TruthCC is the full map's correlation against the ground-truth
	// phantom — a measure the paper could not compute.
	TruthCC float64
	// MeanAngErr and MeanCenErr are mean errors against ground truth.
	MeanAngErr, MeanCenErr float64
	// PerLevel aggregates refinement work (final cycle only).
	PerLevel []LevelAgg
}

// LevelAgg aggregates per-level refinement statistics over all views.
type LevelAgg struct {
	RAngular       float64
	MeanMatchings  float64
	SlideViews     int // views whose window slid at least once
	CappedViews    int // views that ended the level with the slide budget spent (Slides ≥ MaxSlides)
	TotalSlides    int
	MeanCenterEval float64
}

// FSCExperiment is the complete Figs. 2/3/5/6 result for one dataset:
// the old and new methods side by side.
type FSCExperiment struct {
	Spec     DatasetSpec
	Truth    *volume.Grid
	Old, New MethodOutcome
}

// RunFSC executes the full comparison on a dataset: synthesize views,
// hand both methods the same rough initial orientations, iterate
// refine→reconstruct for the configured cycles, and assess both with
// the odd/even FSC.
func RunFSC(spec DatasetSpec, opt FSCOptions) (*FSCExperiment, error) {
	opt.setDefaults()
	ds := spec.Build()
	inits := ds.PerturbedOrientations(spec.InitError, spec.Seed+1)

	exp := &FSCExperiment{Spec: spec, Truth: ds.Truth}

	oldOut, err := runMethod(ds, inits, opt, legacySchedule(opt), false)
	if err != nil {
		return nil, fmt.Errorf("workload: old method: %w", err)
	}
	exp.Old = *oldOut
	newOut, err := runMethod(ds, inits, opt, core.DefaultSchedule(), true)
	if err != nil {
		return nil, fmt.Errorf("workload: new method: %w", err)
	}
	exp.New = *newOut
	return exp, nil
}

// legacySchedule is the "old method" of Figs. 5–6: the default
// schedule truncated at the legacy angular floor, with centre steps no
// finer than the legacy centre floor.
func legacySchedule(opt FSCOptions) []core.Level {
	var out []core.Level
	for _, lv := range core.DefaultSchedule() {
		if lv.RAngular < opt.OldFloorAngular {
			break
		}
		if lv.CenterDelta < opt.OldFloorCenter {
			lv.CenterDelta = opt.OldFloorCenter
		}
		out = append(out, lv)
	}
	if len(out) == 0 {
		out = []core.Level{{RAngular: opt.OldFloorAngular, WindowHalf: 4 * opt.OldFloorAngular,
			CenterDelta: opt.OldFloorCenter, CenterHalf: 1, RMapFrac: 0.4}}
	}
	return out
}

// runMethod iterates refine→reconstruct with the given schedule; the
// legacy and new methods differ in how deep that schedule goes and in
// whether centres are interpolated below the search grid.
func runMethod(ds *micrograph.Dataset, inits []geom.Euler, opt FSCOptions, schedule []core.Level, parabolic bool) (*MethodOutcome, error) {
	loop := newOuterLoop(ds, inits, opt)
	var perLevel []LevelAgg
	for cycle := 0; cycle < opt.Cycles; cycle++ {
		var maxSlides int
		results, err := loop.step(func(cfg *core.Config) {
			maxSlides = cfg.MaxSlides
			cfg.Schedule = schedule
			cfg.ParabolicCenter = parabolic
			if cycle < len(opt.RMapFracPerCycle) {
				if f := opt.RMapFracPerCycle[cycle]; f > 0 && f <= 1 {
					cfg.RMap *= f
				}
			}
		})
		if err != nil {
			return nil, err
		}
		perLevel = aggregate(schedule, maxSlides, results)
	}
	out, err := loop.assess()
	if err != nil {
		return nil, err
	}
	out.PerLevel = perLevel
	return out, nil
}

// outerLoop is the state the refine↔reconstruct experiments iterate
// (steps B and C of the structure-determination procedure): the
// dataset and the current per-view orientations and accumulated centre
// corrections. RunFSC's two methods and RunConvergence share its one
// cycle step and one assessment.
type outerLoop struct {
	ds      *micrograph.Dataset
	images  []*volume.Image
	ctfs    []ctf.Params // nil when the dataset carries no CTF
	recOpt  reconstruct.Options
	opt     FSCOptions
	orients []geom.Euler
	centers [][2]float64
}

func newOuterLoop(ds *micrograph.Dataset, inits []geom.Euler, opt FSCOptions) *outerLoop {
	o := &outerLoop{
		ds:      ds,
		images:  ds.Images(),
		recOpt:  reconstruct.Options{WienerCTF: ds.HasCTF},
		opt:     opt,
		orients: append([]geom.Euler(nil), inits...),
		centers: make([][2]float64, len(ds.Views)),
	}
	if ds.HasCTF {
		o.ctfs = ds.CTFs()
	}
	return o
}

// step runs one cycle: reconstruct the reference from the current
// solution (step C of the previous cycle), mask it, take its padded
// transform, refine every view against it (step B), and fold the
// results into the solution. tune, when non-nil, adjusts the refiner
// configuration for this cycle. It returns the pass's per-view results.
func (o *outerLoop) step(tune func(*core.Config)) ([]core.Result, error) {
	l := o.ds.L
	ref, err := reconstruct.FromViews(o.images, o.orients, o.centers, o.ctfs, o.recOpt)
	if err != nil {
		return nil, err
	}
	ref.SphericalMask(0.45 * float64(l))
	cfg := core.DefaultConfig(l)
	if o.ds.HasCTF {
		cfg.CorrectCTF = true
		cfg.CTFMode = ctf.PhaseFlip
		cfg.CTFWeightCuts = true
	}
	if tune != nil {
		tune(&cfg)
	}
	r, err := core.NewRefiner(fourier.NewVolumeDFTPadded(ref, o.opt.Pad), cfg)
	if err != nil {
		return nil, err
	}
	// Views enter already corrected to the centres found so far, so
	// refinement reports the *incremental* correction.
	src := func(i int) (core.StreamItem, error) {
		it := core.StreamItem{Image: o.images[i], Init: o.orients[i]}
		if c := o.centers[i]; c[0] != 0 || c[1] != 0 {
			f := fourier.ImageDFT(it.Image)
			fourier.ShiftPhase(f, c[0], c[1])
			it.Image = fourier.InverseImageDFT(f)
		}
		if o.ctfs != nil {
			it.CTF = o.ctfs[i]
		}
		return it, nil
	}
	stream := core.StreamOptions{FFTWorkers: o.opt.Workers, RefineWorkers: o.opt.Workers}
	results, err := r.RefineStream(context.Background(), len(o.images), src, stream)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		o.orients[i] = res.Orient
		o.centers[i][0] += res.Center[0]
		o.centers[i][1] += res.Center[1]
	}
	return results, nil
}

// assess reconstructs the full and odd/even half maps from the current
// solution and scores them: half-map FSC, correlation with the
// ground-truth phantom, and mean orientation/centre errors (available
// only because the data is synthetic). PerLevel is left to the caller.
func (o *outerLoop) assess() (*MethodOutcome, error) {
	full, err := reconstruct.FromViews(o.images, o.orients, o.centers, o.ctfs, o.recOpt)
	if err != nil {
		return nil, err
	}
	odd, even, err := reconstruct.SplitHalves(o.images, o.orients, o.centers, o.ctfs, o.recOpt)
	if err != nil {
		return nil, err
	}
	curve, err := fsc.Compute(odd, even, o.ds.PixelA)
	if err != nil {
		return nil, err
	}
	var angSum, cenSum float64
	for i, v := range o.ds.Views {
		angSum += geom.AngularDistance(o.orients[i], v.TrueOrient)
		cenSum += math.Hypot(o.centers[i][0]+v.TrueCenter[0], o.centers[i][1]+v.TrueCenter[1])
	}
	n := float64(len(o.ds.Views))
	return &MethodOutcome{
		Orients:     o.orients,
		Centers:     o.centers,
		Map:         full,
		Curve:       curve,
		ResolutionA: curve.ResolutionAt(0.5),
		TruthCC:     volume.Correlation(o.ds.Truth, full),
		MeanAngErr:  angSum / n,
		MeanCenErr:  cenSum / n,
	}, nil
}

func aggregate(schedule []core.Level, maxSlides int, results []core.Result) []LevelAgg {
	aggs := make([]LevelAgg, len(schedule))
	for li := range schedule {
		aggs[li].RAngular = schedule[li].RAngular
	}
	for _, res := range results {
		for li, st := range res.PerLevel {
			if li >= len(aggs) {
				break
			}
			aggs[li].MeanMatchings += float64(st.Matchings)
			aggs[li].MeanCenterEval += float64(st.CenterEvals)
			if st.Slides > 0 {
				aggs[li].SlideViews++
			}
			if st.Slides >= maxSlides {
				aggs[li].CappedViews++
			}
			aggs[li].TotalSlides += st.Slides
		}
	}
	n := float64(len(results))
	if n > 0 {
		for li := range aggs {
			aggs[li].MeanMatchings /= n
			aggs[li].MeanCenterEval /= n
		}
	}
	return aggs
}
