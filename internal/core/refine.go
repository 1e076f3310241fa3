package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/ctf"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/volume"
)

// Refiner refines view orientations against one reference map
// spectrum. It is safe for concurrent use by multiple goroutines: all
// shared matching state is read-only after construction, and mutable
// kernel buffers come from a per-call scratch pool.
type Refiner struct {
	m           *matcher
	cfg         Config
	scratchPool sync.Pool
}

// NewRefiner builds a refiner for the centred map spectrum dft.
// Oversampled spectra (fourier.NewVolumeDFTPadded) give markedly more
// accurate matching and are recommended.
//
// dft must be the spectrum of a real map, D̂(−p) = conj D̂(p): the
// matcher scores only the Friedel half of the comparison band and lets
// each entry stand for its conjugate mate. Every constructor in
// fourier and parfft produces such a spectrum; a spectrum edited by
// hand through the exported Data field may not, so a fixed sample of
// lattice points is checked here and a violation is an error.
func NewRefiner(dft *fourier.VolumeDFT, cfg Config) (*Refiner, error) {
	if cfg.Schedule == nil {
		cfg.Schedule = DefaultSchedule()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkHermitian(dft); err != nil {
		return nil, err
	}
	if cfg.RMap > float64(dft.SrcL)/2 {
		cfg.RMap = float64(dft.SrcL) / 2
	}
	r := &Refiner{m: newMatcher(dft, cfg), cfg: cfg}
	r.scratchPool.New = func() interface{} { return r.m.newScratch() }
	return r, nil
}

// getScratch borrows worker scratch from the pool; returning it keeps
// the public matching entry points allocation-free at steady state.
func (r *Refiner) getScratch() *matchScratch {
	return r.scratchPool.Get().(*matchScratch)
}

func (r *Refiner) putScratch(sc *matchScratch) { r.scratchPool.Put(sc) }

// BandSize returns the number of Fourier coefficients a matching
// actually compares: the Friedel half of the comparison band. The
// paper's full-disc count, which the simulated cost model charges, is
// the package-level BandSize.
func (r *Refiner) BandSize() int { return len(r.m.band) }

// MaxSlides returns the refiner's Config.MaxSlides, the cap Summarize
// tests its views against.
func (r *Refiner) MaxSlides() int { return r.cfg.MaxSlides }

// View is a prepared experimental view: transformed, CTF-corrected and
// reduced to the matcher's comparison band. Views are mutated by
// refinement (centre shifts are baked in), so refine each view once.
type View struct {
	vd *viewData
}

// PrepareView transforms an experimental image into matching state:
// centred 2-D DFT (step d), optional CTF correction (step e), band
// extraction. The CTF parameters are only consulted when
// Config.CorrectCTF or Config.CTFWeightCuts is set.
//
// Only the Friedel half of the band is extracted: im is real, and the
// radial CTF correction and later centre phase ramps keep
// F(−h,−k) = conj F(h,k), so the dropped half carries no information.
func (r *Refiner) PrepareView(im *volume.Image, p ctf.Params) (*View, error) {
	if im.L != r.m.l {
		return nil, fmt.Errorf("core: view size %d does not match map size %d", im.L, r.m.l)
	}
	f := fourier.ImageDFT(im)
	if r.cfg.CorrectCTF {
		if err := ctf.Correct(f, p, r.cfg.CTFMode); err != nil {
			return nil, err
		}
	}
	var refW []float64
	if r.cfg.CTFWeightCuts {
		refW = r.m.ctfCutWeights(p)
	}
	return &View{vd: r.m.prepareView(f, refW)}, nil
}

// Distance evaluates the configured matching distance d(F, C) between
// a prepared view and the reference cut at orientation o over the full
// band. It is allocation-free at steady state and safe for concurrent
// use.
func (r *Refiner) Distance(v *View, o geom.Euler) float64 {
	sc := r.getScratch()
	d := r.m.distance(v.vd, o, len(r.m.band), sc)
	r.putScratch(sc)
	return d
}

// orientKey quantizes an orientation to the level grid for caching
// distance evaluations across window slides.
type orientKey [3]int64

func keyOf(o geom.Euler, step float64) orientKey {
	return orientKey{
		int64(math.Round(o.Theta / step)),
		int64(math.Round(o.Phi / step)),
		int64(math.Round(o.Omega / step)),
	}
}

// eulerOfKey materializes the orientation at lattice key k — the exact
// inverse of keyOf for on-grid orientations. Every worker computes the
// identical float64 angles for a given key, so a lattice candidate's
// distance does not depend on which worker, run or resume scores it.
func eulerOfKey(k orientKey, step float64) geom.Euler {
	return geom.Euler{Theta: float64(k[0]) * step, Phi: float64(k[1]) * step, Omega: float64(k[2]) * step}
}

// chebyshevGT reports whether a and b differ by more than h cells on
// any axis — the lattice form of "outside the window half-width".
func chebyshevGT(a, b orientKey, h int64) bool {
	for i := 0; i < 3; i++ {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > h {
			return true
		}
	}
	return false
}

// RefineView runs the full multi-resolution refinement (steps f–n) for
// one prepared view starting from the initial orientation. It returns
// the refined orientation, centre offset and per-level statistics.
func (r *Refiner) RefineView(v *View, init geom.Euler) Result {
	sc := r.getScratch()
	defer r.putScratch(sc)
	return r.refineViewRange(v, Result{Orient: init}, 0, len(r.cfg.Schedule), sc, r.cfg.Search)
}

// refineViewRange runs schedule levels [start, stop) for one view,
// continuing from the accumulated result res. The view's band must
// already reflect every shift recorded in res.PerLevel (true trivially
// for a fresh view with an empty prior, and restored for a checkpointed
// view by the stream's FFT stage, which replays res.PerLevel[...].Shifts
// through the matcher's applyShift). res.PerLevel is cloned before appending so priors shared across runs
// are never mutated. mode is the orientation search of every level:
// Config.Search everywhere but the exhaustive oracle.
func (r *Refiner) refineViewRange(v *View, res Result, start, stop int, sc *matchScratch, mode SearchMode) Result {
	viewsRefined.Inc()
	res.PerLevel = append([]LevelStats(nil), res.PerLevel...)
	for li := start; li < stop; li++ {
		rng := newSearchRNG(r.cfg.SearchSeed, li, res.Orient)
		st := r.refineLevel(v.vd, &res, r.cfg.Schedule[li], sc, &rng, mode)
		res.PerLevel = append(res.PerLevel, st)
	}
	return res
}

// ExhaustiveRefine runs the full multi-resolution refinement with the
// paper's flat sliding-window scan forced at every level, regardless
// of Config.Search. It is kept as the correctness reference the
// adaptive descent is validated against (the oracle test suite and
// TestAdaptiveSmokePin); production callers wanting this behaviour must
// configure Search: SearchExhaustive instead.
//
//repro:oracle
func (r *Refiner) ExhaustiveRefine(v *View, init geom.Euler) Result {
	sc := r.getScratch()
	defer r.putScratch(sc)
	return r.refineViewRange(v, Result{Orient: init}, 0, len(r.cfg.Schedule), sc, SearchExhaustive)
}

// CutCacheStats always reports (0, 0): the shared cut cache is gone.
//
// Deprecated: kept only because cmd/benchcycle still reads it; it goes
// when that counter does.
func (r *Refiner) CutCacheStats() (hits, misses int64) { return 0, 0 }

// refineLevel performs one schedule level, updating res in place.
// Orientation search (steps f–j) and centre refinement (steps k–l)
// are coupled — a mis-centred view biases the orientation search and
// vice versa — so the level alternates the two until neither moves
// (at most maxLevelIters rounds). mode selects how the orientation
// window is searched: SearchAdaptive is the seeded descent (rng carries
// the level's probe stream), every other value — the zero value
// included — the flat exhaustive scan, which ignores rng.
//
//repro:hotpath
func (r *Refiner) refineLevel(vd *viewData, res *Result, lv Level, sc *matchScratch, rng *searchRNG, mode SearchMode) LevelStats {
	const maxLevelIters = 4
	var st LevelStats
	n := r.m.prefixLen(lv.effRMapFrac() * r.cfg.RMap)
	if n == 0 {
		n = len(r.m.band)
	}
	st.BandUsed = n
	sc.cache.reset()

	for iter := 0; iter < maxLevelIters; iter++ {
		// Steps k–l first within each round: a mis-centred view
		// decorrelates every cut and derails the orientation search,
		// while the centre landscape stays well-formed even a few
		// degrees off — so fix the centre against the current best
		// orientation before searching orientations.
		shifted := false
		if lv.CenterDelta > 0 && lv.CenterHalf > 0 {
			dx, dy, d := r.refineCenter(vd, res.Orient, lv, n, &st, sc)
			if dx != 0 || dy != 0 {
				r.m.applyShift(vd, dx, dy, &sc.ramp)
				//replint:allow hotpathalloc shift increments must be recorded for checkpoint replay; at most maxLevelIters tiny entries per level
				st.Shifts = append(st.Shifts, [2]float64{dx, dy})
				res.Center[0] += dx
				res.Center[1] += dy
				res.Distance = d
				// Only a shift big enough to matter at this level
				// justifies re-searching orientations; sub-quarter-step
				// parabolic adjustments barely perturb the distances
				// and would otherwise cause endless alternation.
				if math.Hypot(dx, dy) >= 0.25*lv.CenterDelta {
					shifted = true
					// The cached distances were measured against the
					// old centre.
					sc.cache.reset()
				}
			}
		}

		// Steps f–i: orientation search over the level window.
		var best geom.Euler
		var bestD float64
		if mode == SearchAdaptive {
			best, bestD = r.descendOrientations(vd, res.Orient, lv, n, &st, sc, rng)
		} else {
			best, bestD = r.scanOrientations(vd, res.Orient, lv, n, &st, sc)
		}
		moved := geom.AngularDistance(best, res.Orient) > lv.RAngular/2
		res.Orient = best
		res.Distance = bestD

		// Without centre refinement the view never changes, so one
		// pass of the orientation search is complete; with it,
		// alternate until neither the centre nor the orientation
		// moves.
		if lv.CenterDelta <= 0 || lv.CenterHalf <= 0 || (!shifted && !moved) {
			break
		}
	}
	return st
}

// scanOrientations is the paper's flat sliding-window search (steps
// f–i): every window orientation is scored as one batched kernel call
// over the orientations not already in the level cache; the argmin
// then walks the window in grid order, so the selected orientation is
// identical to a scalar orientation-at-a-time scan. The window slides
// whenever the argmin lands on its edge, at most MaxSlides times.
//
//repro:hotpath
func (r *Refiner) scanOrientations(vd *viewData, start geom.Euler, lv Level, n int, st *LevelStats, sc *matchScratch) (geom.Euler, float64) {
	w := geom.CenteredWindow(start, lv.WindowHalf, lv.RAngular)
	best, bestD := start, math.Inf(1)
	for {
		sc.orients = w.AppendOrientations(sc.orients[:0])
		sc.pending = sc.pending[:0]
		for _, o := range sc.orients {
			if sc.cache.claim(keyOf(o, lv.RAngular)) { // value lands below
				//replint:allow hotpathalloc sc.pending is worker-owned scratch that reaches steady-state capacity after the first window of a run
				sc.pending = append(sc.pending, o)
			}
		}
		r.scorePending(vd, lv.RAngular, n, st, sc)
		for _, o := range sc.orients {
			if d := sc.cache.get(keyOf(o, lv.RAngular)); d < bestD {
				bestD = d
				best = o
			}
		}
		if !w.OnEdge(best) || st.Slides >= r.cfg.MaxSlides {
			break
		}
		w = w.Recenter(best)
		st.Slides++
	}
	return best, bestD
}

// maxDryRounds is how many consecutive non-improving descent rounds
// the adaptive search tolerates before stopping: each dry round still
// draws fresh random probes, so the stop criterion is "neighborhood
// plus ~maxDryRounds·searchProbes window samples found nothing
// better", not merely "the 26 neighbors found nothing".
const maxDryRounds = 4

// searchProbes is how many random lattice probes the adaptive descent
// adds to each neighborhood batch; more probes escape shallow local
// minima at proportionally more distance evaluations.
const searchProbes = 2

// descendOrientations is the adaptive orientation search: a seeded
// pattern search (Hooke–Jeeves) over the level's orientation lattice
// (step lv.RAngular per axis). Each round has two halves. The
// exploratory half scores the 3×3×3 neighborhood of the current best
// plus searchProbes random probes within the window half-width — one
// batched kernel call over the not-yet-cached candidates — and moves to
// the round's argmin. The pattern half follows a round that moved by
// v = best − prev: it scores best + s·v for s = 1, 2, 4, …, one
// candidate at a time, re-basing on every candidate that is strictly
// better and stopping at the first that is not, so a straight slope
// costs a logarithmic number of evaluations instead of a 27-candidate
// round per cell. A virtual window then tracks the paper's sliding
// rule once per round: when the best has wandered more than the window
// half-width from the current centre the window recentres and counts
// one slide — however far the pattern half carried it — bounded by
// MaxSlides exactly like the flat scan.
//
// Candidates are global lattice cells (orientation = key · step), so
// the per-level distance memo keys them exactly and a journaled
// result names the same cell on every run. The off-lattice starting
// orientation is evaluated as the baseline: the descent only replaces
// it with a strictly better lattice point, so snapping to the grid can
// never regress a level.
func (r *Refiner) descendOrientations(vd *viewData, start geom.Euler, lv Level, n int, st *LevelStats, sc *matchScratch, rng *searchRNG) (geom.Euler, float64) {
	step := lv.RAngular
	h := int64(math.Round(lv.WindowHalf / step))
	if h < 1 {
		h = 1
	}

	baseD := r.m.distance(vd, start, n, sc)
	st.Matchings++

	best := keyOf(start, step)
	center := best // virtual window centre
	bestD := math.Inf(1)

	// Seed round: a stride-h super-lattice over the window ({-h, 0, h}
	// per axis around the start) buys a coarse global picture of the
	// whole window for up to 27 evaluations, so the descent begins in
	// the window's best basin rather than the nearest one — the cheap
	// stand-in for what the flat scan's full-window argmin provides.
	sc.keys = sc.keys[:0]
	for dt := -h; dt <= h; dt += h {
		for dp := -h; dp <= h; dp += h {
			for do := -h; do <= h; do += h {
				sc.keys = append(sc.keys, orientKey{center[0] + dt, center[1] + dp, center[2] + do})
			}
		}
	}
	r.scoreLatticeKeys(vd, step, n, st, sc)
	for _, k := range sc.keys {
		if d := sc.cache.get(k); d < bestD {
			bestD, best = d, k
		}
	}

	for dry := 0; dry < maxDryRounds; {
		sc.keys = appendLatticeNeighbors(sc.keys[:0], best)
		for p := 0; p < searchProbes; p++ {
			sc.keys = append(sc.keys, orientKey{
				best[0] + rng.offset(h),
				best[1] + rng.offset(h),
				best[2] + rng.offset(h),
			})
		}
		r.scoreLatticeKeys(vd, step, n, st, sc)
		prev := best
		for _, k := range sc.keys {
			if d := sc.cache.get(k); d < bestD {
				bestD, best = d, k
			}
		}
		if best == prev {
			dry++
			continue
		}
		dry = 0
		st.DescentMoves++
		// Pattern half: the round moved by v, so try the same direction
		// again at doubling strides and keep going while the distance
		// strictly falls — bestD decreases with every accepted step, so
		// the loop ends even on a periodic landscape. The stride is
		// capped at the wander the sliding rule still allows the level,
		// h cells for each slide left in the budget: a pattern move is a
		// shortcut through slides the level could still make, so a spent
		// budget ends it. Nothing is drawn from rng.
		v := orientKey{best[0] - prev[0], best[1] - prev[1], best[2] - prev[2]}
		for s := int64(1); s <= h*int64(r.cfg.MaxSlides-st.Slides); s *= 2 {
			k := orientKey{best[0] + s*v[0], best[1] + s*v[1], best[2] + s*v[2]}
			sc.keys = append(sc.keys[:0], k)
			r.scoreLatticeKeys(vd, step, n, st, sc)
			patternEvals.Inc()
			d := sc.cache.get(k)
			if !(d < bestD) {
				break
			}
			bestD, best = d, k
			patternHits.Inc()
		}
		if chebyshevGT(best, center, h) {
			if st.Slides >= r.cfg.MaxSlides {
				break
			}
			center = best
			st.Slides++
		}
	}
	if bestD < baseD {
		return eulerOfKey(best, step), bestD
	}
	return start, baseD
}

// appendLatticeNeighbors appends the 3×3×3 cell neighborhood of c
// (including c itself) to dst.
func appendLatticeNeighbors(dst []orientKey, c orientKey) []orientKey {
	for dt := int64(-1); dt <= 1; dt++ {
		for dp := int64(-1); dp <= 1; dp++ {
			for do := int64(-1); do <= 1; do++ {
				dst = append(dst, orientKey{c[0] + dt, c[1] + dp, c[2] + do})
			}
		}
	}
	return dst
}

// scoreLatticeKeys scores every key in sc.keys not already in the
// level cache, landing the distances in sc.cache. Duplicate keys
// within the batch deduplicate via the same NaN-claim the flat scan
// uses.
func (r *Refiner) scoreLatticeKeys(vd *viewData, step float64, n int, st *LevelStats, sc *matchScratch) {
	sc.pending = sc.pending[:0]
	for _, k := range sc.keys {
		if sc.cache.claim(k) { // value lands below
			sc.pending = append(sc.pending, eulerOfKey(k, step))
		}
	}
	r.scorePending(vd, step, n, st, sc)
}

// scorePending scores the claimed candidates in sc.pending through
// distanceWindow — the one batched kernel both search modes share — and
// lands each distance in sc.cache under its level-grid key (keyOf
// inverts eulerOfKey exactly, so lattice candidates land on the key
// that claimed them).
func (r *Refiner) scorePending(vd *viewData, step float64, n int, st *LevelStats, sc *matchScratch) {
	dists := sc.growDists(len(sc.pending))
	r.m.distanceWindow(vd, sc.pending, n, sc, dists)
	for i, o := range sc.pending {
		sc.cache.set(keyOf(o, step), dists[i])
	}
	st.Matchings += len(sc.pending)
}

// refineCenter performs the sliding-box centre search (step k) against
// the cut at orientation o, returning the best shift and its distance.
// The cut is fixed for the whole search, so its cross-spectrum with the
// view is formed once and every box point costs one ramp-table fill and
// one pass over it (centerDistance).
func (r *Refiner) refineCenter(vd *viewData, o geom.Euler, lv Level, n int, st *LevelStats, sc *matchScratch) (float64, float64, float64) {
	cut := sc.cut[:n]
	r.m.sampleCut(cut, vd.refW, o, sc.cells)
	g := sc.cross[:n]
	ec := r.m.crossSpectrum(vd, cut, g)
	at := func(dx, dy float64) float64 { return r.m.centerDistance(vd, g, ec, dx, dy, &sc.ramp) }
	bestDx, bestDy := 0.0, 0.0
	bestD := at(0, 0)
	st.CenterEvals++
	for {
		cx, cy := bestDx, bestDy
		improved := false
		for i := -lv.CenterHalf; i <= lv.CenterHalf; i++ {
			for j := -lv.CenterHalf; j <= lv.CenterHalf; j++ {
				if i == 0 && j == 0 {
					continue
				}
				dx := cx + float64(i)*lv.CenterDelta
				dy := cy + float64(j)*lv.CenterDelta
				d := at(dx, dy)
				st.CenterEvals++
				if d < bestD {
					bestD, bestDx, bestDy = d, dx, dy
					improved = true
				}
			}
		}
		onEdge := math.Abs(bestDx-cx) >= float64(lv.CenterHalf)*lv.CenterDelta-1e-12 ||
			math.Abs(bestDy-cy) >= float64(lv.CenterHalf)*lv.CenterDelta-1e-12
		if !improved || !onEdge || st.CenterSlides >= r.cfg.MaxSlides {
			break
		}
		st.CenterSlides++
	}
	// Sub-grid parabolic interpolation of the minimum: the distance is
	// locally quadratic in the shift, so a three-point vertex fit per
	// axis removes the ±δ/2 quantization residue that would otherwise
	// bias the next orientation search.
	if r.cfg.ParabolicCenter && bestD < math.Inf(1) {
		delta := lv.CenterDelta
		refineAxis := func(dxOff, dyOff float64) float64 {
			dm := at(bestDx-dxOff*delta, bestDy-dyOff*delta)
			dp := at(bestDx+dxOff*delta, bestDy+dyOff*delta)
			st.CenterEvals += 2
			den := dm - 2*bestD + dp
			if den <= 0 {
				return 0
			}
			off := 0.5 * (dm - dp) / den * delta
			return math.Max(-delta/2, math.Min(delta/2, off))
		}
		ox := refineAxis(1, 0)
		oy := refineAxis(0, 1)
		if ox != 0 || oy != 0 {
			if d := at(bestDx+ox, bestDy+oy); d < bestD {
				bestDx += ox
				bestDy += oy
				bestD = d
			}
			st.CenterEvals++
		}
	}
	return bestDx, bestDy, bestD
}
