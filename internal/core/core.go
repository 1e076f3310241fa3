// Package core implements the paper's primary contribution: a
// sliding-window, multi-resolution, Fourier-domain orientation
// refinement algorithm for virus particles of unknown symmetry
// (paper §4, steps a–o).
//
// Given the centred 3-D DFT D̂ of the current electron-density map and
// a set of experimental views with rough initial orientations, the
// refiner:
//
//  1. transforms each view (2-D DFT) and applies a CTF correction
//     (steps d, e);
//  2. for each view, walks a multi-resolution schedule of angular
//     resolutions (typically 1°, 0.1°, 0.01°, 0.002°); at each level it
//     evaluates the distance between the view transform and
//     central-section cuts of D̂ over a w_θ×w_φ×w_ω window of candidate
//     orientations (steps f–h);
//  3. slides the window whenever the best cut lands on its edge
//     (step i);
//  4. refines the particle centre on a shrinking grid of sub-pixel
//     shifts applied as Fourier phase ramps, with the same sliding-box
//     rule (steps k, l).
//
// No assumption is made about particle symmetry: the search window is
// free to wander anywhere on SO(3), which is what lets the method
// refine asymmetric particles and *discover* the symmetry of symmetric
// ones.
package core

import (
	"fmt"

	"repro/internal/ctf"
	"repro/internal/fourier"
	"repro/internal/geom"
)

// Level is one stage of the multi-resolution schedule.
type Level struct {
	// RAngular is the angular resolution r_angular in degrees: the
	// grid step of the search window.
	RAngular float64
	// WindowHalf is the window half-width in degrees per axis. The
	// number of cuts per axis is 2·(WindowHalf/RAngular)+1; the
	// paper's typical w_θ = w_φ = w_ω ≈ 10 corresponds to
	// WindowHalf ≈ 4.5·RAngular.
	WindowHalf float64
	// CenterDelta is the centre-refinement step δ_center in pixels.
	// Zero disables centre refinement at this level.
	CenterDelta float64
	// CenterHalf is the half-size of the centre search box in steps:
	// 1 gives the paper's 3×3 box (n_center = 9).
	CenterHalf int
	// RMapFrac restricts matching at this level to Fourier radii
	// ≤ RMapFrac·Config.RMap. Coarse levels match on low frequencies
	// only — they are insensitive to residual centre error and the
	// landscape is smooth — while fine levels use the full band.
	// Zero means 1.0 (full band).
	RMapFrac float64
}

// effRMapFrac resolves the zero-means-full default.
func (lv Level) effRMapFrac() float64 {
	if lv.RMapFrac == 0 {
		return 1
	}
	return lv.RMapFrac
}

// windowKeys bounds the orientations one search window of any schedule
// level holds — the flat scan's window, or the adaptive descent's
// stride-h seed lattice, whichever is larger — which sizes the
// distance memo.
func (c *Config) windowKeys() int {
	n := 27
	for _, lv := range c.Schedule {
		n = max(n, geom.CenteredWindow(geom.Euler{}, lv.WindowHalf, lv.RAngular).Size())
	}
	return n
}

// windowAxis is the most samples one axis of a flat-scan window of any
// schedule level holds, which sizes the window's lattice.
func (c *Config) windowAxis() int {
	n := 1
	for _, lv := range c.Schedule {
		nt, np, no := geom.CenteredWindow(geom.Euler{}, lv.WindowHalf, lv.RAngular).Counts()
		n = max(n, nt, np, no)
	}
	return n
}

// DefaultSchedule returns the paper's refinement schedule: angular
// resolutions 1°, 0.1°, 0.01° and 0.002°, with centre resolutions
// 1, 0.1, 0.01 and 0.001 pixels (§5), and 9 cuts per axis per window.
func DefaultSchedule() []Level {
	return []Level{
		{RAngular: 1, WindowHalf: 4, CenterDelta: 1, CenterHalf: 1, RMapFrac: 0.4},
		{RAngular: 0.1, WindowHalf: 0.4, CenterDelta: 0.1, CenterHalf: 1, RMapFrac: 0.7},
		{RAngular: 0.01, WindowHalf: 0.04, CenterDelta: 0.01, CenterHalf: 1},
		{RAngular: 0.002, WindowHalf: 0.008, CenterDelta: 0.001, CenterHalf: 1},
	}
}

// SearchMode selects how a schedule level's orientation window is
// searched.
type SearchMode string

const (
	// SearchExhaustive scores every orientation of the sliding window —
	// the paper's steps f–i verbatim. It is also what the zero value ""
	// resolves to, so hand-built Configs keep their historical
	// behaviour.
	SearchExhaustive SearchMode = "exhaustive"
	// SearchAdaptive replaces the flat scan with a seeded pattern search
	// over the level's orientation lattice: each round scores only the
	// neighborhood of the current best (plus a few random probes), and a
	// round that moved is extended along its own direction at doubling
	// strides while the distance keeps falling — an order of magnitude
	// fewer distance evaluations than the scan once a view is
	// converging, and a distant minimum is reached rather than crawled
	// toward. Results are deterministic — the probe streams derive from
	// Config.SearchSeed, never global rand — and the flat scan remains
	// available as the correctness oracle (Refiner.ExhaustiveRefine).
	SearchAdaptive SearchMode = "adaptive"
)

// Config controls the refiner.
type Config struct {
	// RMap is the Fourier radius r_map (in frequency-index units):
	// only coefficients with h²+k² ≤ RMap² enter the distance, which
	// both band-limits the comparison and bounds its cost.
	RMap float64
	// Schedule is the multi-resolution plan; nil selects
	// DefaultSchedule.
	Schedule []Level
	// Interp selects the 3-D interpolation used to cut D̂: Trilinear
	// in production. Nearest is an ablation set only by
	// BenchmarkAblationInterp and core's tests; no served job,
	// cmd/tables row or example uses it.
	Interp fourier.Interpolation
	// MaxSlides bounds how many times a window or centre box may be
	// re-centred per level (n_window).
	MaxSlides int
	// ParabolicCenter enables sub-grid parabolic interpolation of the
	// centre-search minimum, removing the ±δ/2 quantization residue.
	// Production refinement wants this on; the legacy baseline turns
	// it off to reproduce grid-limited centre accuracy.
	ParabolicCenter bool
	// NormalizeScale, when set, scales each cut to the view by least
	// squares before the distance, making the metric insensitive to
	// the arbitrary intensity gain of experimental images. Disable to
	// use the paper's raw formula — which only BenchmarkAblationNormalize
	// and core's tests do; no served job, cmd/tables row or example
	// does.
	NormalizeScale bool
	// CorrectCTF applies the given correction to view transforms
	// before matching (step e).
	CorrectCTF bool
	// CTFMode selects the correction used when CorrectCTF is set.
	CTFMode ctf.Correction
	// CTFWeightCuts additionally weights every reference cut by
	// |CTF(s)| for the view's microscope parameters — the matched-
	// filter comparison: a phase-flipped view retains the microscope's
	// amplitude attenuation, so the reference it is compared against
	// should be attenuated identically. Most effective together with
	// CorrectCTF + PhaseFlip.
	CTFWeightCuts bool
	// Search selects the per-level orientation search. The zero value
	// resolves to SearchExhaustive for backward compatibility;
	// DefaultConfig selects SearchAdaptive.
	Search SearchMode
	// SearchSeed seeds the adaptive descent's deterministic probe
	// streams (per level and per level-entry orientation). Two runs
	// with the same seed are bit-identical regardless of worker count.
	SearchSeed int64
}

// DefaultConfig returns a production configuration for maps of size l:
// r_map at 80% of Nyquist, trilinear cuts, least-squares scaling,
// the paper's schedule, adaptive orientation search, and at most 10
// window slides.
func DefaultConfig(l int) Config {
	return Config{
		RMap:            0.8 * float64(l) / 2,
		Schedule:        DefaultSchedule(),
		Interp:          fourier.Trilinear,
		MaxSlides:       10,
		NormalizeScale:  true,
		ParabolicCenter: true,
		Search:          SearchAdaptive,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.RMap <= 0 {
		return fmt.Errorf("core: RMap must be positive, got %g", c.RMap)
	}
	for i, lv := range c.Schedule {
		if lv.RAngular <= 0 {
			return fmt.Errorf("core: level %d has non-positive RAngular", i)
		}
		if lv.WindowHalf < 0 {
			return fmt.Errorf("core: level %d has negative WindowHalf", i)
		}
		if lv.CenterDelta < 0 || lv.CenterHalf < 0 {
			return fmt.Errorf("core: level %d has negative centre parameters", i)
		}
		if lv.RMapFrac < 0 || lv.RMapFrac > 1 {
			return fmt.Errorf("core: level %d has RMapFrac %g outside [0, 1]", i, lv.RMapFrac)
		}
	}
	if c.MaxSlides < 0 {
		return fmt.Errorf("core: MaxSlides must be non-negative")
	}
	switch c.Search {
	case "", SearchExhaustive, SearchAdaptive:
	default:
		return fmt.Errorf("core: unknown search mode %q", c.Search)
	}
	return nil
}

// LevelStats counts the work done at one schedule level for one view.
type LevelStats struct {
	// Matchings is the number of distinct cut-distance evaluations
	// (each is one "matching operation": construct a cut, compute the
	// distance — paper §4).
	Matchings int
	// Slides is how many times the sliding window was re-centred, at
	// most Config.MaxSlides in either search mode. The adaptive descent
	// counts recentres of its virtual window: once per round whose best
	// orientation ends more than the window half-width from the current
	// centre. Under the flat scan one slide carries the window exactly
	// one half-width; under the descent one recentre may carry it
	// further, because a round's pattern move can cross several
	// half-widths before the window rule is applied.
	Slides int
	// DescentMoves is how many rounds of the adaptive descent moved its
	// best orientation (0 under the exhaustive scan). A round counts
	// once, whether it moved one cell or its pattern move carried the
	// best many cells further.
	DescentMoves int
	// CenterEvals is the number of centre-shift distance evaluations.
	CenterEvals int
	// CenterSlides is how many times the centre box was re-centred.
	CenterSlides int
	// BandUsed is the number of Fourier coefficients compared per
	// matching at this level: the low-frequency prefix of the Friedel
	// half band selected by RMapFrac (about half the full-disc count).
	BandUsed int
	// Shifts records, in application order, every centre-shift
	// increment (dx, dy) baked into the view's band during this level
	// (one entry per refineLevel round that moved the centre). Replaying
	// the increments on a freshly prepared view — in PerLevel order, as
	// the stream's workers do — reproduces the view's band state
	// bit-identically, which is what lets a checkpointed refinement
	// resume mid-schedule with no numerical drift (see RefineStreamLevels).
	Shifts [][2]float64
}

// Result is the refined solution for one view (step n):
// O^refined = {θ_µ, φ_µ, ω_µ, x_center, y_center}.
type Result struct {
	// Orient is the refined orientation.
	Orient geom.Euler
	// Center is the refined particle-centre offset (dx, dy) in pixels
	// relative to the geometric image centre l/2.
	Center [2]float64
	// Distance is the final matching distance d(F, C_µ).
	Distance float64
	// PerLevel records the work done at each schedule level.
	PerLevel []LevelStats
}

// TotalMatchings sums matching operations across levels.
func (r *Result) TotalMatchings() int {
	n := 0
	for _, s := range r.PerLevel {
		n += s.Matchings
	}
	return n
}

// LevelSummary is one schedule level's work over the views that ran
// it: the record behind the level_end event, a job's per-level status
// and the §5 sliding-window statistics.
type LevelSummary struct {
	Views        int `json:"views"`
	Matchings    int `json:"matchings"`
	CenterEvals  int `json:"center_evals"`
	Slides       int `json:"slides"`
	CenterSlides int `json:"center_slides"`
	DescentMoves int `json:"descent_moves"`
	Shifts       int `json:"shifts"`
	// SlideViews counts views whose window slid at least once.
	SlideViews int `json:"slide_views"`
	// SlideCapped and CenterCapped count views that ended the level
	// with the window's (centre box's) slide budget spent: the search
	// was truncated, not converged.
	SlideCapped  int `json:"slide_capped"`
	CenterCapped int `json:"center_capped"`
}

// Summarize folds level (an index into Result.PerLevel) over results,
// skipping views that have not run it; maxSlides is the refiner's
// Config.MaxSlides.
func Summarize(results []Result, level, maxSlides int) LevelSummary {
	var s LevelSummary
	for i := range results {
		if level >= len(results[i].PerLevel) {
			continue
		}
		st := &results[i].PerLevel[level]
		s.Views++
		s.Matchings += st.Matchings
		s.CenterEvals += st.CenterEvals
		s.Slides += st.Slides
		s.CenterSlides += st.CenterSlides
		s.DescentMoves += st.DescentMoves
		s.Shifts += len(st.Shifts)
		if st.Slides > 0 {
			s.SlideViews++
		}
		if st.Slides >= maxSlides {
			s.SlideCapped++
		}
		if st.CenterSlides >= maxSlides {
			s.CenterCapped++
		}
	}
	return s
}
