package core

import "repro/internal/obs"

// Matcher and refinement traffic. Kernel counters fire inside the
// //repro:hotpath entry points (a bump is one atomic add, and nothing
// when disabled). Per-level work is not counted here: it is
// LevelSummary, folded per job from the results.
var (
	matchDistanceEvals = obs.NewCounter("core.match.distance_evals")
	matchShiftedEvals  = obs.NewCounter("core.match.shifted_evals")

	// The descent's pattern move: candidates tried against extensions
	// accepted. hits/evals is the useful-outcome ratio of the mechanism;
	// a converging move costs one miss.
	patternEvals = obs.NewCounter("core.search.pattern_evals")
	patternHits  = obs.NewCounter("core.search.pattern_hits")

	viewsRefined = obs.NewCounter("core.views_refined")
	streamViews  = obs.NewCounter("core.stream.views")
)
