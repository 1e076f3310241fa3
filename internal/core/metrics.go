package core

import "repro/internal/obs"

// Matcher and refinement traffic. Kernel counters fire inside the
// //repro:hotpath entry points (a bump is one atomic add, and nothing
// when disabled); the per-resolution-level vectors are recorded once
// per completed level from the level's own LevelStats, outside any
// kernel. Levels beyond the vector width clamp into the last cell.
const maxLevelCells = 8

var (
	matchDistanceEvals = obs.NewCounter("core.match.distance_evals")
	matchShiftedEvals  = obs.NewCounter("core.match.shifted_evals")

	levelMatchings    = obs.NewCounterVec("core.level.matchings", maxLevelCells)
	levelSlides       = obs.NewCounterVec("core.level.slides", maxLevelCells)
	levelCenterEvals  = obs.NewCounterVec("core.level.center_evals", maxLevelCells)
	levelCenterSlides = obs.NewCounterVec("core.level.center_slides", maxLevelCells)
	levelDescentMoves = obs.NewCounterVec("core.level.descent_moves", maxLevelCells)
	// levelSlideCapped counts views whose level ended with the slide
	// budget spent: the search was truncated, not converged.
	levelSlideCapped = obs.NewCounterVec("core.level.slide_capped", maxLevelCells)

	// The descent's pattern move: candidates tried against extensions
	// accepted. hits/evals is the useful-outcome ratio of the mechanism;
	// a converging move costs one miss.
	patternEvals = obs.NewCounter("core.search.pattern_evals")
	patternHits  = obs.NewCounter("core.search.pattern_hits")

	viewsRefined = obs.NewCounter("core.views_refined")
	streamViews  = obs.NewCounter("core.stream.views")
)

// recordLevelStats folds one completed level's statistics into the
// per-level counters.
func (r *Refiner) recordLevelStats(li int, st LevelStats) {
	if !obs.Enabled() {
		return
	}
	levelMatchings.Add(li, int64(st.Matchings))
	levelSlides.Add(li, int64(st.Slides))
	levelCenterEvals.Add(li, int64(st.CenterEvals))
	levelCenterSlides.Add(li, int64(st.CenterSlides))
	levelDescentMoves.Add(li, int64(st.DescentMoves))
	if st.Slides >= r.cfg.MaxSlides {
		levelSlideCapped.Inc(li)
	}
}
