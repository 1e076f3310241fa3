package fourier

import "repro/internal/obs"

// Sampler traffic. cut_calls counts batched central-section
// evaluations (one per candidate orientation); cut_coeffs counts band
// coefficients filled across all cuts — the raw interpolation volume
// the matcher drives. cell_hits and cell_misses split the in-band
// samples of SampleCutScore by whether the worker's cell memo already
// held the sample's cell.
var (
	samplerCutCalls   = obs.NewCounter("fourier.sampler.cut_calls")
	samplerCutCoeffs  = obs.NewCounter("fourier.sampler.cut_coeffs")
	samplerCellHits   = obs.NewCounter("fourier.sampler.cell_hits")
	samplerCellMisses = obs.NewCounter("fourier.sampler.cell_misses")
)
