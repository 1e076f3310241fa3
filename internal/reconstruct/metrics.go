package reconstruct

import "repro/internal/obs"

// Reconstruction traffic (§10 conventions): views_inserted and
// coeffs_spread bump once per prepared view (one atomic add each, and
// nothing when instrumentation is off).
var (
	viewsInserted = obs.NewCounter("reconstruct.views_inserted")
	coeffsSpread  = obs.NewCounter("reconstruct.coeffs_spread")
)
