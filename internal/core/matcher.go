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
// the distance d(F, C): signed frequencies (h, k) with r ≤ RMap on the
// Friedel half plane, plus its weight wt(j,k) — 2, because the entry
// also stands for its dropped conjugate mate (−h, −k), and 1 at the
// self-conjugate origin — and radius.
type bandEntry struct {
	h, k   int
	weight float64
	radius float64
}

// matcher owns the read-only state shared by all views: the volume
// spectrum and the comparison band — the Friedel half of the disc
// r ≤ RMap, valid because the spectrum is that of a real map
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
	// inNyquist is how many leading band entries no rotation carries
	// past Nyquist (fourier.Sampler.InNyquist): the whole band when RMap
	// is below l/2, as in production, and all but the Nyquist ring when
	// it is l/2.
	inNyquist int
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
			if r > rmax {
				continue
			}
			w := 2.0
			if h == 0 && k == 0 {
				w = 1
			}
			m.band = append(m.band, bandEntry{h: h, k: k, weight: w, radius: r})
		}
	}
	m.finishBand(rmax)
	return m
}

// finishBand turns the enumerated band positions into the matcher's
// working layout: entries sorted by (radius, h, k), the
// structure-of-arrays mirror and phase-ramp table indices filled, and
// the in-Nyquist prefix measured on the sorted band. Every
// entry has |h|, |k| ≤ r ≤ rmax, so tables spanning −⌊rmax⌋…⌊rmax⌋
// cover the half band and the full disc alike.
func (m *matcher) finishBand(rmax float64) {
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
	m.inNyquist = m.smp.InNyquist(m.fh, m.fk)
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
	cut      []complex128      // the centre search's cut
	cross    []complex128      // centre refinement's cross-spectrum w·conj(C)·F
	ramp     shiftRamp         // phase-ramp tables of the shifts being scored
	window   latticeWindow     // the flat scan's window: axis values, keys and rotation factors
	slots    []int             // memo slot of each window orientation, in grid order
	rot      latticeRotations  // the descent's rotation factors by lattice index
	pending  []candidate       // fresh candidates, scored pendingChunk at a time
	keys     []orientKey       // adaptive candidate batch (lattice keys)
	keySlots []int             // memo slot of each key in keys
	cache    *distMemo         // per-level distance memo across window slides
	cells    *fourier.CellMemo // each band slot's last cell
}

// newScratch allocates worker scratch sized to the full band, to one
// search window of the schedule and to one candidate batch, so a
// search grows none of it.
func (m *matcher) newScratch() *matchScratch {
	n, w := len(m.band), m.cfg.windowKeys()
	return &matchScratch{
		cut:      make([]complex128, n),
		cross:    make([]complex128, n),
		ramp:     m.newRamp(),
		window:   newLatticeWindow(m.cfg.windowAxis()),
		slots:    make([]int, w),
		pending:  make([]candidate, 0, pendingChunk),
		keySlots: make([]int, 0, pendingChunk),
		cache:    newDistMemo(w),
		cells:    fourier.NewCellMemo(n),
	}
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

// scoreAxes samples the reference cut C whose image axes are x̂ and ŷ
// over the leading n band entries, times the view's per-entry cut
// weights when present, and returns its sums against the view:
// ec = E_C = Σ w·|C|² and cross = ⟨F,C⟩ = Σ w·(re F·re C + im F·im C).
// It writes the weighted cut to cut when cut is not nil; a distance
// needs only the sums. It is core's one cut entry point — every
// distance, under either metric and either interpolation, and the
// centre box's cut: fourier.Sampler.SampleCutScore reads the corners
// through the worker's cell memo and forms both sums as it samples the
// cut (inside the AVX blend pass on amd64, over the band's in-Nyquist
// prefix, a Go loop elsewhere), in slot order, so every path gives the
// same bits.
//
//repro:hotpath
func (m *matcher) scoreAxes(vd *viewData, x, y geom.Vec3, n int, cut []complex128, cells *fourier.CellMemo) (ec, cross float64) {
	return m.smp.SampleCutScore(cut, m.fh, m.fk, m.inNyquist, x, y, cells, vd.vals[:n], m.wt, vd.refW)
}

// scoreCut is scoreAxes at orientation o over the leading len(cut)
// band entries, writing the weighted cut to cut: the centre search's
// cut.
//
//repro:hotpath
func (m *matcher) scoreCut(vd *viewData, o geom.Euler, cut []complex128, cells *fourier.CellMemo) (ec, cross float64) {
	rot := o.Matrix()
	return m.scoreAxes(vd, rot.Col(0), rot.Col(1), len(cut), cut, cells)
}

// metric is the distance from the view energy E_F and a cut's sums
// ec = E_C and cross = ⟨F,C⟩. Under Config.NormalizeScale the cut is
// scaled by the least-squares factor α* = cross/E_C (clamped at zero)
// before the squared difference, making the metric insensitive to
// intensity gain: d = (E_F − cross²/E_C)/l². Without it, the paper's
// raw d = Σ w·|F−C|²/l², expanded as (E_F + E_C − 2·cross)/l².
func (m *matcher) metric(energy, ec, cross float64) float64 {
	if !m.cfg.NormalizeScale {
		return (energy + ec - 2*cross) * m.invL2
	}
	if ec == 0 || cross <= 0 {
		// A zero or anti-correlated cut cannot be scaled onto F; the
		// best non-negative scale is 0 and d = E_F.
		return energy * m.invL2
	}
	return (energy - cross*cross/ec) * m.invL2
}

// axesDistance is the distance to the view of the cut whose image axes
// are x̂ and ŷ over the leading n band entries: scoreAxes' sums, then
// metric. The cut is not stored.
//
//repro:hotpath
func (m *matcher) axesDistance(vd *viewData, x, y geom.Vec3, n int, cells *fourier.CellMemo) float64 {
	ec, cross := m.scoreAxes(vd, x, y, n, nil, cells)
	return m.metric(vd.prefixE[n], ec, cross)
}

// cutDistance is axesDistance at orientation o, whose image axes are
// columns 0 and 1 of o.Matrix().
//
//repro:hotpath
func (m *matcher) cutDistance(vd *viewData, o geom.Euler, n int, cells *fourier.CellMemo) float64 {
	rot := o.Matrix()
	return m.axesDistance(vd, rot.Col(0), rot.Col(1), n, cells)
}

// distance evaluates d(F, C_s) for the cut at orientation o over the
// leading n band entries (cutDistance), counting one evaluation.
//
//repro:hotpath
func (m *matcher) distance(vd *viewData, o geom.Euler, n int, sc *matchScratch) float64 {
	matchDistanceEvals.Inc()
	return m.cutDistance(vd, o, n, sc.cells)
}

// shiftRamp holds phase-ramp tables of centre shifts in the shift
// theorem's separable form: the table of a shift d along one axis holds
// t[h+R] = e^{−2πi·h·d/l} for R = matcher.rampR, so band entry i is
// shifted by (dx, dy) through x[hi[i]]·y[ki[i]]. A table depends on d
// alone, so each axis keeps its last rampWays tables keyed by the bits
// of d and fills a table only for a shift it does not hold: a centre
// box has 2·CenterHalf+1 distinct shifts per axis, and refineCenter
// computes each the same way at every box point.
type shiftRamp struct{ x, y rampAxis }

// rampWays is how many tables a shiftRamp keeps per axis: the three
// distinct shifts of the paper's 3×3 box, and one more.
const rampWays = 4

// rampAxis is one axis's tables, replaced round robin.
type rampAxis struct {
	tabs  [rampWays][]complex128
	keys  [rampWays]uint64 // math.Float64bits of each table's shift
	valid [rampWays]bool
	next  int // the table the next fill replaces
	fills int // tables filled so far
}

// newRamp allocates ramp tables spanning the matcher's band, all in one
// backing array.
func (m *matcher) newRamp() shiftRamp {
	n := 2*m.rampR + 1
	buf := make([]complex128, 2*rampWays*n)
	var rp shiftRamp
	for w := range rampWays {
		rp.x.tabs[w] = buf[(2*w)*n : (2*w+1)*n : (2*w+1)*n]
		rp.y.tabs[w] = buf[(2*w+1)*n : (2*w+2)*n : (2*w+2)*n]
	}
	return rp
}

// rampTable returns the ramp table of shift d along one axis, filling
// it on a miss: R+1 Sincos calls, the negative frequencies being the
// conjugate mirror of the positive ones, instead of one call per band
// coefficient.
//
//repro:hotpath
func (m *matcher) rampTable(a *rampAxis, d float64) []complex128 {
	b := math.Float64bits(d)
	for w := range a.tabs {
		if a.valid[w] && a.keys[w] == b {
			return a.tabs[w]
		}
	}
	w := a.next
	a.next = (w + 1) % rampWays
	t, r := a.tabs[w], m.rampR
	twoPiOverL := 2 * math.Pi / float64(m.l)
	for j := 0; j <= r; j++ {
		s, c := math.Sincos(-twoPiOverL * float64(j) * d)
		t[r+j], t[r-j] = complex(c, s), complex(c, -s)
	}
	a.keys[w], a.valid[w] = b, true
	a.fills++
	return t
}

// crossSpectrum prepares the centre search against one fixed cut: it
// fills g[i] = w_i·conj(C_i)·F_i over the leading len(cut) band
// entries. It does not depend on the shift, so the centre box forms it
// once per search (the cut's energy E_C comes from scoreCut).
//
//repro:hotpath
func (m *matcher) crossSpectrum(vd *viewData, cut, g []complex128) {
	wt, vals := m.wt, vd.vals
	for i, c := range cut {
		w, f := wt[i], vals[i]
		cr, ci := real(c), imag(c)
		g[i] = complex(w*(cr*real(f)+ci*imag(f)), w*(cr*imag(f)-ci*real(f)))
	}
}

// centerDistance evaluates step k's d(E_i, C_µ): the view shifted by
// (dx, dy) pixels against the fixed cut whose cross-spectrum g
// crossSpectrum prepared and whose energy ec scoreCut returned. The
// shifted view is F·x[h]·y[k], so ⟨F_shifted, C⟩ = Σ Re(g·x[h]·y[k]),
// and a phase ramp leaves the view energy E_F unchanged; metric turns
// the sums into the distance, as it does for axesDistance.
//
//repro:hotpath
func (m *matcher) centerDistance(vd *viewData, g []complex128, ec, dx, dy float64, rp *shiftRamp) float64 {
	matchShiftedEvals.Inc()
	n := len(g)
	energy := vd.prefixE[n]
	hi, ki := m.hi[:n], m.ki[:n]
	x, y := m.rampTable(&rp.x, dx), m.rampTable(&rp.y, dy)
	var cross float64
	for i, gv := range g {
		xv, yv := x[hi[i]], y[ki[i]]
		pr := real(xv)*real(yv) - imag(xv)*imag(yv)
		pi := real(xv)*imag(yv) + imag(xv)*real(yv)
		cross += real(gv)*pr - imag(gv)*pi
	}
	return m.metric(energy, ec, cross)
}

// applyShift bakes a centre shift into the view's band coefficients
// (step l: "correct E_q to account for the new center") through the
// same ramp tables the centre box scores with. rp is caller scratch.
//
//repro:hotpath
func (m *matcher) applyShift(vd *viewData, dx, dy float64, rp *shiftRamp) {
	x, y := m.rampTable(&rp.x, dx), m.rampTable(&rp.y, dy)
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
