package fourier

import "repro/internal/obs"

// Sampler traffic. cut_calls counts batched central-section
// evaluations (one per candidate orientation); cut_coeffs counts band
// coefficients filled across all cuts — the raw interpolation volume
// the matcher drives. at_calls counts single-point samples (which the
// nearest-neighbour SampleCut path also routes through).
var (
	samplerAtCalls   = obs.NewCounter("fourier.sampler.at_calls")
	samplerCutCalls  = obs.NewCounter("fourier.sampler.cut_calls")
	samplerCutCoeffs = obs.NewCounter("fourier.sampler.cut_coeffs")
)
