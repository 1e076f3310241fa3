package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"repro/internal/ctf"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/volume"
)

// bandEntry is one Fourier coefficient position that participates in
// the distance d(F, C): signed frequencies (h, k) with RMin ≤ r ≤ RMap
// on the Friedel half plane, plus its weight wt(j,k) — doubled when the
// entry also stands for its dropped conjugate mate (−h, −k) — and
// radius.
type bandEntry struct {
	h, k   int
	weight float64
	radius float64
}

// matcher owns the read-only state shared by all views: the volume
// spectrum and the comparison band — the Friedel half of the disc
// RMin ≤ r ≤ RMap, valid because the spectrum is that of a real map
// (NewRefiner checks) — sorted by increasing frequency radius so coarse
// schedule levels can match on a low-frequency prefix. It is safe for
// concurrent use; mutable per-worker state lives in matchScratch.
type matcher struct {
	dft *fourier.VolumeDFT
	// smp is the fused central-section sampler bound to dft: lattice
	// constants hoisted, wrap arithmetic branch-based, trilinear corners
	// read through the worker's cell memo. The scalar dft.Sample path is
	// kept as the reference implementation (and test oracle).
	smp fourier.Sampler
	cfg Config
	l   int
	// band is sorted by (radius, h, k) ascending — the tie-break makes
	// the layout, and therefore the floating-point accumulation order
	// of every distance, reproducible across runs and Go versions.
	band []bandEntry
	// Structure-of-arrays mirror of band for the fused kernel: the hot
	// loops read three flat float64 slices (frequencies pre-converted
	// from int) instead of an array of mixed-field structs.
	fh, fk, wt []float64
	// hi, ki index each entry's h and k into the separable phase-ramp
	// tables of a centre shift, which span −rampR…rampR: hi = h + rampR.
	hi, ki []int32
	rampR  int
	// invL2 normalizes distances to the paper's 1/l² scale.
	invL2 float64
}

func newMatcher(dft *fourier.VolumeDFT, cfg Config) *matcher {
	l := dft.SrcL
	m := &matcher{dft: dft, smp: dft.NewSampler(cfg.Interp), cfg: cfg, l: l, invL2: 1 / float64(l*l)}
	rmax := math.Min(cfg.RMap, float64(l)/2)
	ri := int(rmax)
	// Friedel half plane {h > 0} ∪ {h = 0, k ≥ 0}: map and views are
	// real, so F(−h,−k) = conj F(h,k) and C(−h,−k) = conj C(h,k), and the
	// two members of a conjugate pair contribute identical terms to every
	// distance. Only one is kept, at twice the weight, which preserves the
	// full-disc value (and the paper's 1/l² scale) at half the work.
	for h := 0; h <= ri; h++ {
		for k := -ri; k <= ri; k++ {
			if h == 0 && k < 0 {
				continue
			}
			r := math.Hypot(float64(h), float64(k))
			if r > rmax || r < cfg.RMin {
				continue
			}
			w := 1.0
			if cfg.Weighting != nil {
				w = cfg.Weighting(r)
			}
			if w <= 0 {
				continue
			}
			if h != 0 || k != 0 {
				w *= 2
			}
			m.band = append(m.band, bandEntry{h: h, k: k, weight: w, radius: r})
		}
	}
	m.finishBand(rmax)
	return m
}

// finishBand turns the enumerated band positions into the matcher's
// working layout: spectral weights applied, entries sorted by
// (radius, h, k), and the structure-of-arrays mirror and phase-ramp
// table indices filled. Every entry has |h|, |k| ≤ r ≤ rmax, so tables
// spanning −⌊rmax⌋…⌊rmax⌋ cover the half band and the full disc alike.
func (m *matcher) finishBand(rmax float64) {
	if m.cfg.SpectralWeight && m.dft.Data != nil {
		power := radialPower(m.dft, rmax)
		// Soft gate rather than raw power: shells carrying signal get
		// weight ≈1, shells whose power has fallen below ~1% of the
		// peak (noise-only territory on experimental data) roll off.
		// Raw power would over-weight the lowest shells — which are
		// nearly rotation-invariant — and flatten the search
		// landscape.
		const gate = 0.01
		for i := range m.band {
			shell := int(math.Round(m.band[i].radius))
			if shell < len(power) {
				m.band[i].weight *= power[shell] / (power[shell] + gate)
			}
		}
	}
	sort.SliceStable(m.band, func(a, b int) bool {
		ea, eb := m.band[a], m.band[b]
		if ea.radius != eb.radius {
			return ea.radius < eb.radius
		}
		if ea.h != eb.h {
			return ea.h < eb.h
		}
		return ea.k < eb.k
	})
	m.fh = make([]float64, len(m.band))
	m.fk = make([]float64, len(m.band))
	m.wt = make([]float64, len(m.band))
	m.hi = make([]int32, len(m.band))
	m.ki = make([]int32, len(m.band))
	m.rampR = int(rmax)
	for i, e := range m.band {
		m.fh[i] = float64(e.h)
		m.fk[i] = float64(e.k)
		m.wt[i] = e.weight
		m.hi[i] = int32(e.h + m.rampR)
		m.ki[i] = int32(e.k + m.rampR)
	}
}

// radialPower tabulates the reference spectrum's mean power per
// frequency shell (in image-frequency units), normalized to a maximum
// of 1. Shells are sampled along the three lattice axes — adequate for
// the radially smooth spectra of compact particles and much cheaper
// than a full 3-D scan of a padded volume.
func radialPower(dft *fourier.VolumeDFT, rmax float64) []float64 {
	dirs := geom.SphereGrid(26)
	n := int(rmax) + 1
	power := make([]float64, n)
	s := dft.NewSampler(fourier.Trilinear)
	for shell := 0; shell < n; shell++ {
		f := float64(shell)
		for _, d := range dirs {
			p := d.ViewAxis().Scale(f)
			v := s.At(p.X, p.Y, p.Z)
			power[shell] += real(v)*real(v) + imag(v)*imag(v)
		}
		power[shell] /= float64(len(dirs))
	}
	max := 0.0
	for _, p := range power {
		if p > max {
			max = p
		}
	}
	if max > 0 {
		for i := range power {
			power[i] /= max
		}
	}
	return power
}

// prefixLen returns how many leading band entries have radius ≤ rmax.
func (m *matcher) prefixLen(rmax float64) int {
	return sort.Search(len(m.band), func(i int) bool { return m.band[i].radius > rmax })
}

// matchScratch holds the reusable per-worker buffers of the fused
// matching kernel, so the inner loops are allocation-free. Every
// goroutine must own its scratch (the matcher itself stays read-only
// and shared).
type matchScratch struct {
	cut     []complex128      // candidate cut being scored
	cross   []complex128      // centre refinement's cross-spectrum w·conj(C)·F
	ramp    shiftRamp         // phase-ramp tables of the shift being scored
	orients []geom.Euler      // current window grid
	pending []geom.Euler      // uncached candidates, scored as one batch
	keys    []orientKey       // adaptive candidate batch (lattice keys)
	dists   []float64         // batched distances for pending
	cache   *distMemo         // per-level distance memo across window slides
	cells   *fourier.CellMemo // each band slot's last trilinear cell; nil in nearest mode
}

// growDists returns a length-n distance buffer, growing the backing
// array geometrically so the adaptive path's many small candidate
// batches and the flat scan's occasional large windows share one
// steady-state allocation (the same pattern sc.pending follows through
// append).
//
//repro:hotpath
func (sc *matchScratch) growDists(n int) []float64 {
	if cap(sc.dists) < n {
		//replint:allow hotpathalloc worker-owned scratch doubled on demand: it reaches the level's largest batch (one flat window, or 27+probes lattice keys) within the first view and never allocates again
		sc.dists = make([]float64, max(n, 2*cap(sc.dists)))
	}
	return sc.dists[:n]
}

// newScratch allocates worker scratch sized to the full band.
func (m *matcher) newScratch() *matchScratch {
	n := len(m.band)
	sc := &matchScratch{
		cut:   make([]complex128, n),
		cross: make([]complex128, n),
		ramp:  m.newRamp(),
		cache: newDistMemo(m.cfg.windowKeys()),
	}
	if m.cfg.Interp != fourier.Nearest {
		sc.cells = fourier.NewCellMemo(n)
	}
	return sc
}

// viewData is the per-view matching state: the CTF-corrected transform
// sampled at band positions, its band energy, and (optionally) a
// matched-filter weight applied to reference cuts so that a
// phase-flipped view is compared against an equally CTF-attenuated
// reference.
type viewData struct {
	vals []complex128 // F at band entries (radius-ascending order)
	refW []float64    // per-entry cut weights (nil = unweighted)
	// prefixE[i] = Σ_{j<i} w_j·|F_j|², so the band energy of the
	// first n entries is prefixE[n].
	prefixE []float64
}

// prepareView extracts the band coefficients of a view transform.
// The transform must be in the centred convention of fourier.ImageDFT.
// refW, when non-nil, is the per-band-entry weight applied to every
// cut during matching.
func (m *matcher) prepareView(f *volume.CImage, refW []float64) *viewData {
	vd := &viewData{vals: make([]complex128, len(m.band)), prefixE: make([]float64, len(m.band)+1), refW: refW}
	for i, e := range m.band {
		vd.vals[i] = f.Data[wrapIdx(e.h, m.l)*m.l+wrapIdx(e.k, m.l)]
	}
	vd.rebuildEnergy(m.band)
	return vd
}

// rebuildEnergy recomputes the prefix-energy table after the values
// change.
func (vd *viewData) rebuildEnergy(band []bandEntry) {
	var acc float64
	vd.prefixE[0] = 0
	for i, e := range band {
		v := vd.vals[i]
		acc += e.weight * (real(v)*real(v) + imag(v)*imag(v))
		vd.prefixE[i+1] = acc
	}
}

// ctfCutWeights tabulates |CTF(s)| over the band for matched-filter
// cut weighting.
func (m *matcher) ctfCutWeights(p ctf.Params) []float64 {
	out := make([]float64, len(m.band))
	for i, e := range m.band {
		s := p.FreqOfBin(e.h, e.k, m.l)
		out[i] = math.Abs(p.Eval(s))
	}
	return out
}

func wrapIdx(f, l int) int {
	f %= l
	if f < 0 {
		f += l
	}
	return f
}

// checkHermitian verifies D̂(−p) = conj D̂(p) — the property of a real
// map's spectrum that the half band relies on — on a fixed sample of
// lattice points: the 13 half-space neighbour directions of the origin
// at three strides (low, mid and high frequency), which costs
// microseconds. The tolerance is relative to the largest sampled
// magnitude, far above FFT rounding and far below any real asymmetry.
// Points are read through VolumeDFT.At, which derives a z < 0 point
// from its mate, so the check bites on the z = 0 plane, where the
// stored half holds both members of each pair.
func checkHermitian(dft *fourier.VolumeDFT) error {
	l := dft.L
	if l <= 0 || len(dft.Data) != l*l*(l/2+1) {
		return fmt.Errorf("core: spectrum holds %d coefficients, want the %d·%d·%d half of a %d³ lattice", len(dft.Data), l, l, l/2+1, l)
	}
	at := func(x, y, z int) complex128 {
		return dft.At(wrapIdx(x, l), wrapIdx(y, l), wrapIdx(z, l))
	}
	var worst, scale float64
	var wx, wy, wz int
	for _, s := range [3]int{1, max(1, l/8), max(1, l/4)} {
		for x := 0; x <= 1; x++ {
			for y := -x; y <= 1; y++ {
				for z := -1; z <= 1; z++ {
					if x == 0 && y == 0 && z <= 0 {
						continue
					}
					a, b := at(s*x, s*y, s*z), at(-s*x, -s*y, -s*z)
					scale = math.Max(scale, math.Max(cmplx.Abs(a), cmplx.Abs(b)))
					if d := cmplx.Abs(a - cmplx.Conj(b)); d > worst {
						worst, wx, wy, wz = d, s*x, s*y, s*z
					}
				}
			}
		}
	}
	if worst > 1e-9*scale {
		return fmt.Errorf("core: spectrum is not Hermitian (|D(p) − conj D(−p)| = %.3g at p = (%d,%d,%d), scale %.3g): the reference must be the DFT of a real map", worst, wx, wy, wz, scale)
	}
	return nil
}

// sampleCut fills cut with the reference cut C at orientation o over
// the leading len(cut) band entries — the fused replacement for
// sampling D̂ coefficient by coefficient — applying the view's
// per-entry cut weights when present. It is the single cut
// construction shared by the distance, magnitude and centre-refinement
// paths, so the metric variants cannot drift from each other. The
// trilinear corners are read through the cell memo cells (nil in
// nearest mode), which leaves the cut bit-identical to SampleCut's.
//
//repro:hotpath
func (m *matcher) sampleCut(cut []complex128, refW []float64, o geom.Euler, cells *fourier.CellMemo) {
	rot := o.Matrix()
	n := len(cut)
	m.smp.SampleCutMemo(cut, m.fh[:n], m.fk[:n], rot.Col(0), rot.Col(1), cells)
	if refW != nil {
		for i, c := range cut {
			w := refW[i]
			cut[i] = complex(real(c)*w, imag(c)*w)
		}
	}
}

// distanceToCut evaluates the configured distance between the view and
// an already-sampled cut over the leading len(cut) band entries.
//
// With Config.NormalizeScale the cut is scaled by the least-squares
// factor α* = ⟨F,C⟩/⟨C,C⟩ (clamped at zero) before the squared
// difference, making the metric insensitive to intensity gain:
// d = (E_F − ⟨F,C⟩²/E_C)/l². Without it, the paper's raw formula
// d = Σ w·|F−C|² / l² is used.
//
//repro:hotpath
func (m *matcher) distanceToCut(vd *viewData, cut []complex128) float64 {
	n := len(cut)
	energy := vd.prefixE[n]
	wt := m.wt
	vals := vd.vals
	if m.cfg.NormalizeScale {
		var ec, cross float64
		for i, c := range cut {
			fv := vals[i]
			w := wt[i]
			cr, ci := real(c), imag(c)
			ec += w * (cr*cr + ci*ci)
			cross += w * (real(fv)*cr + imag(fv)*ci)
		}
		if ec == 0 || cross <= 0 {
			// A zero or anti-correlated cut cannot be scaled onto F;
			// the best non-negative scale is 0 and d = E_F.
			return energy * m.invL2
		}
		return (energy - cross*cross/ec) * m.invL2
	}
	var d float64
	for i, c := range cut {
		fv := vals[i]
		dr, di := real(fv)-real(c), imag(fv)-imag(c)
		d += wt[i] * (dr*dr + di*di)
	}
	return d * m.invL2
}

// distance evaluates d(F, C_s) for the cut at orientation o without
// materializing anything beyond the scratch cut buffer: the fused
// sampler writes C over the band prefix and the accumulation follows.
//
//repro:hotpath
func (m *matcher) distance(vd *viewData, o geom.Euler, n int, sc *matchScratch) float64 {
	matchDistanceEvals.Inc()
	cut := sc.cut[:n]
	m.sampleCut(cut, vd.refW, o, sc.cells)
	return m.distanceToCut(vd, cut)
}

// distanceWindow is the batched sliding-window entry point: it scores
// every candidate orientation in one call, writing dst[i] for
// orients[i]. Scratch, band layout and metric configuration are set up
// once per call instead of once per candidate; dst must have length
// len(orients).
//
//repro:hotpath
func (m *matcher) distanceWindow(vd *viewData, orients []geom.Euler, n int, sc *matchScratch, dst []float64) {
	matchDistanceEvals.Add(int64(len(orients)))
	cut := sc.cut[:n]
	for i, o := range orients {
		m.sampleCut(cut, vd.refW, o, sc.cells)
		dst[i] = m.distanceToCut(vd, cut)
	}
}

// shiftRamp holds the phase ramp of one centre shift (dx, dy) in the
// shift theorem's separable form, x[h+R] = e^{−2πi·h·dx/l} and
// y[k+R] = e^{−2πi·k·dy/l} for R = matcher.rampR, so band entry i is
// shifted by x[hi[i]]·y[ki[i]].
type shiftRamp struct{ x, y []complex128 }

// newRamp allocates ramp tables spanning the matcher's band, both in
// one backing array.
func (m *matcher) newRamp() shiftRamp {
	n := 2*m.rampR + 1
	buf := make([]complex128, 2*n)
	return shiftRamp{x: buf[:n:n], y: buf[n:]}
}

// fillRamp tabulates the ramp of shift (dx, dy): 2(R+1) Sincos calls,
// the negative frequencies being the conjugate mirror of the positive
// ones, instead of one call per band coefficient.
//
//repro:hotpath
func (m *matcher) fillRamp(rp *shiftRamp, dx, dy float64) {
	r := m.rampR
	twoPiOverL := 2 * math.Pi / float64(m.l)
	for j := 0; j <= r; j++ {
		s, c := math.Sincos(-twoPiOverL * float64(j) * dx)
		rp.x[r+j], rp.x[r-j] = complex(c, s), complex(c, -s)
		s, c = math.Sincos(-twoPiOverL * float64(j) * dy)
		rp.y[r+j], rp.y[r-j] = complex(c, s), complex(c, -s)
	}
}

// crossSpectrum prepares the centre search against one fixed cut: it
// fills g[i] = w_i·conj(C_i)·F_i over the leading len(cut) band entries
// and returns the cut energy E_C = Σ w_i·|C_i|². Neither depends on the
// shift, so the centre box computes them once per search.
//
//repro:hotpath
func (m *matcher) crossSpectrum(vd *viewData, cut, g []complex128) float64 {
	wt, vals := m.wt, vd.vals
	var ec float64
	for i, c := range cut {
		w, f := wt[i], vals[i]
		cr, ci := real(c), imag(c)
		ec += w * (cr*cr + ci*ci)
		g[i] = complex(w*(cr*real(f)+ci*imag(f)), w*(cr*imag(f)-ci*real(f)))
	}
	return ec
}

// centerDistance evaluates step k's d(E_i, C_µ): the view shifted by
// (dx, dy) pixels against the fixed cut whose cross-spectrum g and
// energy ec crossSpectrum prepared. The shifted view is F·x[h]·y[k], so
// ⟨F_shifted, C⟩ = Σ Re(g·x[h]·y[k]), and a phase ramp leaves the view
// energy E_F unchanged. The least-squares metric is then
// (E_F − cross²/E_C)/l², the raw one (E_F + E_C − 2·cross)/l² — both
// the same quantities distanceToCut forms, expanded for a shifted view.
//
//repro:hotpath
func (m *matcher) centerDistance(vd *viewData, g []complex128, ec, dx, dy float64, rp *shiftRamp) float64 {
	matchShiftedEvals.Inc()
	m.fillRamp(rp, dx, dy)
	n := len(g)
	energy := vd.prefixE[n]
	hi, ki := m.hi[:n], m.ki[:n]
	x, y := rp.x, rp.y
	var cross float64
	for i, gv := range g {
		xv, yv := x[hi[i]], y[ki[i]]
		pr := real(xv)*real(yv) - imag(xv)*imag(yv)
		pi := real(xv)*imag(yv) + imag(xv)*real(yv)
		cross += real(gv)*pr - imag(gv)*pi
	}
	if m.cfg.NormalizeScale {
		if ec == 0 || cross <= 0 {
			// As in distanceToCut: the best non-negative scale is 0.
			return energy * m.invL2
		}
		return (energy - cross*cross/ec) * m.invL2
	}
	return (energy + ec - 2*cross) * m.invL2
}

// applyShift bakes a centre shift into the view's band coefficients
// (step l: "correct E_q to account for the new center") through the
// same ramp tables the centre box scores with. rp is caller scratch.
//
//repro:hotpath
func (m *matcher) applyShift(vd *viewData, dx, dy float64, rp *shiftRamp) {
	m.fillRamp(rp, dx, dy)
	x, y := rp.x, rp.y
	for i, f := range vd.vals {
		vd.vals[i] = f * (x[m.hi[i]] * y[m.ki[i]])
	}
	vd.rebuildEnergy(m.band)
}

// fullDiscSize returns the number of coefficients of the full-disc band
// the half band stands for: every entry counts twice except the
// self-conjugate origin. This is the count the paper's program compares
// per matching, and the one the simulated SP2 cost model charges.
func (m *matcher) fullDiscSize() int {
	n := 2 * len(m.band)
	if n > 0 && m.band[0].h == 0 && m.band[0].k == 0 {
		n--
	}
	return n
}

// BandSize returns the number of Fourier coefficients in the paper's
// full-disc comparison band, −r…r × −r…r — the count the simulated SP2
// cost model charges per matching (the tables model the paper's
// program, which scores both members of every conjugate pair). The
// matcher itself compares only the Friedel half of it; that count is
// Refiner.BandSize. Band construction never touches spectrum data, so
// this works for arbitrarily large l.
func BandSize(l int, cfg Config) int {
	dummy := &fourier.VolumeDFT{L: l, SrcL: l}
	return newMatcher(dummy, cfg).fullDiscSize()
}

// EstimateMatchFlops models the floating-point work of one matching
// operation (one cut construction + distance) over a band of the
// given size — ~8 trilinear corner fetches with complex weighting plus
// the distance accumulation, per band coefficient — for the simulated
// cluster's cost model and the paper-scale timing extrapolations.
func EstimateMatchFlops(bandSize int) float64 {
	const perCoeff = 60.0
	return perCoeff * float64(bandSize)
}

// EstimateViewFFTFlops models step d (the 2-D DFT of one l×l view).
func EstimateViewFFTFlops(l int) float64 {
	if l < 2 {
		return 0
	}
	return 2 * float64(l) * 5 * float64(l) * math.Log2(float64(l))
}
