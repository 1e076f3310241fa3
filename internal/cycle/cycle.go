// Package cycle closes the paper's outer loop (structure-determination
// steps 6–7): alternate a full multi-resolution refinement pass over
// every view, a Fourier-inversion reconstruction from the refined
// orientations, and an odd/even half-map FSC, feeding each cycle's map
// back as the next cycle's reference D̂, "until the 3D electron density
// map cannot be further improved". The stopping rule is fsc.Plateau:
// the loop ends when the 0.5-crossing resolution has failed to improve
// by ε Å for K consecutive cycles, or at a hard max-cycles cap.
//
// The driver is deterministic and wall-clock-free (it is in the replint
// simclock scope): all scheduling state is explicit in State, all
// side effects go through Hooks, and a run resumed from a checkpoint —
// mid-refinement with the previous cycle's map reloaded, or
// mid-reconstruction with the current cycle's refinement complete —
// produces the final map and FSC curve bit-identically to an
// uninterrupted run. The serving layer (internal/serve) owns the
// journal and artifact store; this package owns only the state machine
//
//	refine level 0..Levels-1 → reconstruct full+halves → FSC → observe
//
// repeated per cycle.
package cycle

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/ctf"
	"repro/internal/fourier"
	"repro/internal/fsc"
	"repro/internal/geom"
	"repro/internal/reconstruct"
	"repro/internal/volume"
)

// Config shapes a multi-cycle run.
type Config struct {
	// L is the cubic box size of the views and maps.
	L int
	// PixelA is the pixel size in Å, labelling the FSC frequency axis.
	PixelA float64
	// Levels is how many levels of core.DefaultSchedule each cycle's
	// refinement pass runs (1..len(DefaultSchedule)).
	Levels int
	// Pad is the reference-map Fourier padding factor (0 selects 2).
	Pad int
	// MaxCycles is the hard cap on cycles (≥1).
	MaxCycles int
	// PlateauEps is the minimum 0.5-crossing improvement (Å) that
	// counts as progress (0 selects 0.01).
	PlateauEps float64
	// PlateauWindow is how many consecutive non-improving cycles stop
	// the run (0 selects 2; <0 disables plateau stopping).
	PlateauWindow int
	// Search selects the orientation-search mode ("" selects adaptive);
	// SearchSeed seeds the adaptive probe streams.
	Search     core.SearchMode
	SearchSeed int64
	// CTF, when set, enables phase-flip correction and cut weighting
	// during refinement and Wiener weighting during reconstruction —
	// set it iff the dataset views carry CTF state.
	CTF bool
	// GridCenters, when set, leaves every level's centre on its search
	// grid instead of interpolating below it (core.Config.ParabolicCenter
	// off) — the grid-limited "old method" of the paper's Figs. 5–6. Only
	// the experiments set it; no job spec, flag or environment variable
	// reaches it.
	GridCenters bool
	// Stream shapes each refinement pass (zero value: GOMAXPROCS workers).
	Stream core.StreamOptions
}

// maskFrac scales the spherical mask applied to each cycle's reference
// map before matching, as a fraction of L — the fraction the workload
// experiments use.
const maskFrac = 0.45

// normalized validates cfg and fills defaults.
func (cfg Config) normalized() (Config, error) {
	if cfg.L < 2 {
		return cfg, fmt.Errorf("cycle: box size %d too small", cfg.L)
	}
	if cfg.PixelA <= 0 {
		return cfg, fmt.Errorf("cycle: non-positive pixel size %g", cfg.PixelA)
	}
	if max := len(core.DefaultSchedule()); cfg.Levels < 1 || cfg.Levels > max {
		return cfg, fmt.Errorf("cycle: levels %d outside 1..%d", cfg.Levels, max)
	}
	if cfg.Pad == 0 {
		cfg.Pad = 2
	}
	if cfg.Pad < 1 || cfg.Pad > 4 {
		return cfg, fmt.Errorf("cycle: pad %d outside 1..4", cfg.Pad)
	}
	if cfg.MaxCycles < 1 {
		return cfg, fmt.Errorf("cycle: max cycles %d below 1", cfg.MaxCycles)
	}
	if cfg.PlateauEps < 0 {
		return cfg, fmt.Errorf("cycle: negative plateau epsilon %g", cfg.PlateauEps)
	}
	if cfg.PlateauEps == 0 {
		cfg.PlateauEps = 0.01
	}
	if cfg.PlateauWindow == 0 {
		cfg.PlateauWindow = 2
	}
	if cfg.PlateauWindow < 0 {
		cfg.PlateauWindow = 0 // plateau stopping disabled
	}
	if cfg.Search == "" {
		cfg.Search = core.SearchAdaptive
	}
	return cfg, nil
}

// Dataset is the view stack a cycle job refines. The driver never
// mutates it.
type Dataset struct {
	// Views are the experimental images E_q.
	Views []*volume.Image
	// CTFs carries per-view microscope state, one per view; nil when the
	// views carry none (Config.CTF unset).
	CTFs []ctf.Params
	// Inits are the rough initial orientations O_q^init — also the
	// orientations the cycle-0 reference is reconstructed from.
	Inits []geom.Euler
}

// validate checks the dataset against the config.
func (ds Dataset) validate(cfg Config) error {
	if len(ds.Views) < 2 {
		return fmt.Errorf("cycle: %d views, need at least 2 for odd/even halves", len(ds.Views))
	}
	if len(ds.Inits) != len(ds.Views) {
		return fmt.Errorf("cycle: %d views but %d initial orientations", len(ds.Views), len(ds.Inits))
	}
	if (cfg.CTF || len(ds.CTFs) != 0) && len(ds.CTFs) != len(ds.Views) {
		return fmt.Errorf("cycle: %d views but %d CTF params", len(ds.Views), len(ds.CTFs))
	}
	for i, v := range ds.Views {
		if v.L != cfg.L {
			return fmt.Errorf("cycle: view %d size %d does not match box size %d", i, v.L, cfg.L)
		}
	}
	return nil
}

// CycleFSC summarizes one completed cycle — the record the journal
// persists and the event stream narrates.
type CycleFSC struct {
	// Cycle is the zero-based cycle index.
	Cycle int `json:"cycle"`
	// ResolutionA is the odd/even FSC 0.5 crossing in Å.
	ResolutionA float64 `json:"resolution_a"`
	// MeanCC is the curve's mean correlation over all shells.
	MeanCC float64 `json:"mean_cc"`
	// Improved reports that this cycle moved the best crossing by at
	// least the plateau epsilon.
	Improved bool `json:"improved"`
	// Plateau is the consecutive non-improving cycle count after this
	// cycle.
	Plateau int `json:"plateau"`
}

// Why the run stopped.
const (
	// StopPlateau: the 0.5 crossing failed to improve for the
	// configured window of cycles.
	StopPlateau = "plateau"
	// StopMaxCycles: the hard cycle cap was reached.
	StopMaxCycles = "max_cycles"
)

// State is the resumable position of a run — what the serving layer
// reconstructs from its journal. The zero value starts a fresh run.
type State struct {
	// LevelsDone is the number of globally completed refinement levels
	// (cycle·Levels + level within cycle).
	LevelsDone int
	// Results holds the per-view results after the last completed
	// level, with PerLevel chronological across cycles — exactly the
	// priors core.RefineStreamLevels replays. nil when LevelsDone is 0.
	Results []core.Result
	// History holds the completed cycles' FSC records in order; the
	// plateau rule is refolded from it on resume.
	History []CycleFSC
	// Ref is the reference map for the current cycle: the previous
	// cycle's reconstruction, or nil at the start of cycle 0 (the
	// driver rebuilds the initial reference from Dataset.Inits).
	Ref *volume.Grid
}

// Hooks are the driver's side-effect surface. Any hook may be nil; a
// non-nil hook returning an error aborts the run with that error. All
// hooks run on the calling goroutine, between pipeline stages.
type Hooks struct {
	// OnCycleStart fires when cycle c's refinement pass begins (not on
	// mid-cycle resume).
	OnCycleStart func(c int) error
	// OnLevelStart fires before each refinement level; global is the
	// journal-facing level index c·Levels + k.
	OnLevelStart func(c, global int) error
	// OnLevel fires after each completed refinement level with the
	// cumulative per-view results — the checkpoint hook — and the
	// level's summary over them.
	OnLevel func(c, global int, results []core.Result, sum core.LevelSummary) error
	// OnMap fires after cycle c's full-map reconstruction, before the
	// FSC — the artifact hook. m is the map the next cycle will use as
	// its reference; the hook must not mutate it.
	OnMap func(c int, m *volume.Grid) error
	// OnCycleEnd fires after cycle c's FSC with the cycle record, the
	// full curve, and the stop reason ("" when the loop continues).
	OnCycleEnd func(rec CycleFSC, curve *fsc.Curve, stopped string) error
	// Drain, when non-nil, is polled at every checkpoint boundary;
	// returning true parks the run (Outcome.Parked) at that boundary.
	Drain func() bool
}

// Outcome is the final state of a run.
type Outcome struct {
	// Results are the per-view refined results after the last completed
	// level.
	Results []core.Result
	// Map and Curve are the last completed cycle's full reconstruction
	// and odd/even FSC (nil when no cycle completed).
	Map   *volume.Grid
	Curve *fsc.Curve
	// History holds every completed cycle's record.
	History []CycleFSC
	// Stopped is why the run ended: StopPlateau or StopMaxCycles
	// (empty when Parked).
	Stopped string
	// Parked reports that Hooks.Drain interrupted the run at a
	// checkpoint; State-equivalent fields in the hooks' keeping resume
	// it.
	Parked bool
}

// Run executes the outer loop from st to plateau, max-cycles, context
// cancellation, or a drain park. The zero State starts fresh; a State
// rebuilt from a journal resumes bit-identically, including inside a
// cycle's refinement pass (st.Ref then carries the previous cycle's
// map) and between a cycle's reconstruction and its FSC (st.LevelsDone
// a whole multiple of Levels past History).
func Run(ctx context.Context, ds Dataset, cfg Config, st State, h Hooks) (*Outcome, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	if err := ds.validate(cfg); err != nil {
		return nil, err
	}
	n := len(ds.Views)

	startCycle := len(st.History)
	if startCycle >= cfg.MaxCycles {
		return nil, fmt.Errorf("cycle: resume at cycle %d past max cycles %d", startCycle, cfg.MaxCycles)
	}
	if st.LevelsDone < startCycle*cfg.Levels || st.LevelsDone > (startCycle+1)*cfg.Levels {
		return nil, fmt.Errorf("cycle: %d levels done inconsistent with %d completed cycles of %d levels",
			st.LevelsDone, startCycle, cfg.Levels)
	}
	results := st.Results
	if results == nil {
		if st.LevelsDone != 0 {
			return nil, fmt.Errorf("cycle: %d levels done but no results", st.LevelsDone)
		}
		results = InitialResults(ds.Inits)
	} else if len(results) != n {
		return nil, fmt.Errorf("cycle: %d views but %d resumed results", n, len(results))
	}

	// Refold the plateau rule from the journaled history so a resumed
	// run stops exactly where the uninterrupted one would.
	pl := &fsc.Plateau{Eps: cfg.PlateauEps, Window: cfg.PlateauWindow}
	for _, rec := range st.History {
		pl.Observe(rec.ResolutionA)
	}

	out := &Outcome{History: append([]CycleFSC(nil), st.History...)}
	ref := st.Ref

	for c := startCycle; c < cfg.MaxCycles; c++ {
		local := st.LevelsDone - c*cfg.Levels
		if local < 0 {
			local = 0
		}

		if local < cfg.Levels {
			if local == 0 && h.OnCycleStart != nil {
				if err := h.OnCycleStart(c); err != nil {
					return nil, err
				}
			}
			if ref == nil {
				if c > 0 {
					return nil, fmt.Errorf("cycle: resuming cycle %d at level %d without a reference map", c, local)
				}
				// Step A of cycle 0: the initial reference is
				// reconstructed from the rough initial orientations —
				// never from partially refined results, so a resume into
				// cycle 0 (at any level) rebuilds the identical reference.
				ref, err = fullMap(ds, InitialResults(ds.Inits), cfg)
				if err != nil {
					return nil, fmt.Errorf("cycle: initial reference: %w", err)
				}
			}
			r, err := newRefiner(ref, cfg)
			if err != nil {
				return nil, err
			}
			releaseStage()
			var parked bool
			results, parked, err = RefinePass(ctx, r, core.SliceSource(ds.Views, ds.CTFs, ds.Inits), results, c, local, cfg.Levels, cfg.Stream, h)
			if err != nil {
				return nil, err
			}
			if parked {
				out.Results = results
				out.Parked = true
				return out, nil
			}
		}
		// When local == Levels the resume landed between this cycle's
		// refinement and its reconstruction; no reference map is needed —
		// reconstruction depends only on the refined results.

		if h.Drain != nil && h.Drain() {
			out.Results = results
			out.Parked = true
			return out, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		releaseStage()

		// Steps B–C: reconstruct the full map and the odd/even halves
		// from the refined orientations, then assess with the FSC.
		full, err := fullMap(ds, results, cfg)
		if err != nil {
			return nil, fmt.Errorf("cycle: cycle %d reconstruction: %w", c, err)
		}
		if h.OnMap != nil {
			if err := h.OnMap(c, full); err != nil {
				return nil, err
			}
		}
		releaseStage()
		curve, err := HalfMapFSC(ds, results, cfg)
		if err != nil {
			return nil, fmt.Errorf("cycle: cycle %d %w", c, err)
		}

		resA := curve.ResolutionAt(0.5)
		improved, stop := pl.Observe(resA)
		rec := CycleFSC{Cycle: c, ResolutionA: resA, MeanCC: curve.MeanCC(), Improved: improved, Plateau: pl.Count}
		stopped := ""
		switch {
		case stop:
			stopped = StopPlateau
		case c == cfg.MaxCycles-1:
			stopped = StopMaxCycles
		}
		out.History = append(out.History, rec)
		if h.OnCycleEnd != nil {
			if err := h.OnCycleEnd(rec, curve, stopped); err != nil {
				return nil, err
			}
		}

		out.Results = results
		out.Map = full
		out.Curve = curve
		if stopped != "" {
			out.Stopped = stopped
			return out, nil
		}
		// Step D: this cycle's map is the next cycle's reference.
		ref = full
		st.LevelsDone = (c + 1) * cfg.Levels
	}
	// Unreachable: the last loop iteration always sets a stop reason.
	return out, nil
}

// RefinePass is the one level loop: it runs schedule levels
// [from, levels) of cycle c on r, one RefineStreamLevels call per level
// continuing from priors, and returns the per-view results after the
// last completed level. Before each level it polls h.Drain — true parks
// the pass at that checkpoint boundary (parked, with the results so
// far) — and fires h.OnLevelStart; after each level it fires h.OnLevel,
// the checkpoint hook, with the level's core.Summarize. Both hooks see
// the job-global level index c·levels + k. Run calls it once per cycle; the serving layer calls it
// directly (c = 0) for a refine job, whose reference is not a
// reconstruction. Only those three hooks are consulted.
func RefinePass(ctx context.Context, r *core.Refiner, src core.StreamSource, priors []core.Result, c, from, levels int, opt core.StreamOptions, h Hooks) (results []core.Result, parked bool, err error) {
	results = priors
	for k := from; k < levels; k++ {
		if h.Drain != nil && h.Drain() {
			return results, true, nil
		}
		global := c*levels + k
		if h.OnLevelStart != nil {
			if err := h.OnLevelStart(c, global); err != nil {
				return nil, false, err
			}
		}
		results, err = r.RefineStreamLevels(ctx, len(priors), src, results, k, k+1, opt)
		if err != nil {
			return nil, false, err
		}
		if h.OnLevel != nil {
			if err := h.OnLevel(c, global, results, core.Summarize(results, global, r.MaxSlides())); err != nil {
				return nil, false, err
			}
		}
	}
	return results, false, nil
}

// releaseStage collects the stage that just ended before the next one
// allocates. Every stage boundary turns volume-sized buffers into
// garbage at once (a refiner's padded transform; per reconstruction
// one accumulator pair, Finish's half spectrum and the map; the FSC's
// two spectra), and the stages between two boundaries allocate almost
// nothing, so the pacer alone sees the bursts late: whether its
// concurrent mark finished before the next burst decides if the dead
// buffers count as live, and the same job's peak RSS then moves from
// one run to the next. A collection here costs a few ms against a
// refinement pass of seconds and makes the peak the largest single
// stage, not the sum of neighbours.
func releaseStage() { runtime.GC() }

// InitialResults are the priors of a fresh refinement pass: the rough
// initial orientations with zero centre corrections.
func InitialResults(inits []geom.Euler) []core.Result {
	results := make([]core.Result, len(inits))
	for i := range results {
		results[i] = core.Result{Orient: inits[i]}
	}
	return results
}

// newRefiner builds cycle c's refiner over a masked, padded transform
// of the reference map. The reference is cloned first — masking must
// not corrupt the map the journal's digest describes.
func newRefiner(ref *volume.Grid, cfg Config) (*core.Refiner, error) {
	masked := ref.Clone()
	masked.SphericalMask(maskFrac * float64(cfg.L))
	dft := fourier.NewVolumeDFTPadded(masked, cfg.Pad)
	ccfg := core.DefaultConfig(cfg.L)
	ccfg.Schedule = core.DefaultSchedule()[:cfg.Levels]
	ccfg.Search = cfg.Search
	ccfg.SearchSeed = cfg.SearchSeed
	ccfg.ParabolicCenter = !cfg.GridCenters
	if cfg.CTF {
		ccfg.CorrectCTF = true
		ccfg.CTFMode = ctf.PhaseFlip
		ccfg.CTFWeightCuts = true
	}
	r, err := core.NewRefiner(dft, ccfg)
	if err != nil {
		return nil, fmt.Errorf("cycle: building refiner: %w", err)
	}
	return r, nil
}

// reconOptions assembles the reconstruction options: the reconstruct
// default for workers.
func reconOptions(cfg Config) reconstruct.ParallelOptions {
	return reconstruct.ParallelOptions{Options: reconstruct.Options{WienerCTF: cfg.CTF}}
}

// fullMap reconstructs the full map from every view at the given
// results' orientations and accumulated centre corrections.
func fullMap(ds Dataset, results []core.Result, cfg Config) (*volume.Grid, error) {
	orients, centers := solutions(results)
	return reconstruct.FromViewsParallel(ds.Views, orients, centers, ds.CTFs, reconOptions(cfg))
}

// HalfMapFSC is the paper's Fig. 4 assessment of a solution: reconstruct
// the odd/even half maps (1-based view parity) from the given results
// and correlate them shell by shell. Run calls it once per cycle; the
// depth study calls it after every level. Of cfg it reads PixelA and
// CTF.
func HalfMapFSC(ds Dataset, results []core.Result, cfg Config) (*fsc.Curve, error) {
	orients, centers := solutions(results)
	odd, even, err := reconstruct.SplitHalvesParallel(ds.Views, orients, centers, ds.CTFs, reconOptions(cfg))
	if err != nil {
		return nil, fmt.Errorf("half maps: %w", err)
	}
	releaseStage()
	curve, err := fsc.ComputeParallel(odd, even, cfg.PixelA, 0)
	if err != nil {
		return nil, fmt.Errorf("fsc: %w", err)
	}
	return curve, nil
}

// solutions splits results into the orientation and centre slices the
// reconstruction API wants.
func solutions(results []core.Result) ([]geom.Euler, [][2]float64) {
	orients := make([]geom.Euler, len(results))
	centers := make([][2]float64, len(results))
	for i, res := range results {
		orients[i] = res.Orient
		centers[i] = res.Center
	}
	return orients, centers
}
