package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/micrograph"
	"repro/internal/phantom"
)

// This file preserves the pre-fusion scalar matching loops — each cut
// coefficient sampled individually through VolumeDFT.Sample — as the
// reference oracle for the fused kernel. Any change to the kernel must
// keep the randomized equivalence tests below within 1e-12.

func oracleDistance(m *matcher, vd *viewData, o geom.Euler, n int) float64 {
	rot := o.Matrix()
	xa, ya := rot.Col(0), rot.Col(1)
	energy := vd.prefixE[n]
	if m.cfg.NormalizeScale {
		var ec, cross float64
		for i, e := range m.band[:n] {
			f3 := geom.Vec3{
				X: xa.X*float64(e.h) + ya.X*float64(e.k),
				Y: xa.Y*float64(e.h) + ya.Y*float64(e.k),
				Z: xa.Z*float64(e.h) + ya.Z*float64(e.k),
			}
			c := m.dft.Sample(f3, m.cfg.Interp)
			if vd.refW != nil {
				c *= complex(vd.refW[i], 0)
			}
			fv := vd.vals[i]
			ec += e.weight * (real(c)*real(c) + imag(c)*imag(c))
			cross += e.weight * (real(fv)*real(c) + imag(fv)*imag(c))
		}
		if ec == 0 || cross <= 0 {
			return energy * m.invL2
		}
		return (energy - cross*cross/ec) * m.invL2
	}
	var d float64
	for i, e := range m.band[:n] {
		f3 := geom.Vec3{
			X: xa.X*float64(e.h) + ya.X*float64(e.k),
			Y: xa.Y*float64(e.h) + ya.Y*float64(e.k),
			Z: xa.Z*float64(e.h) + ya.Z*float64(e.k),
		}
		c := m.dft.Sample(f3, m.cfg.Interp)
		if vd.refW != nil {
			c *= complex(vd.refW[i], 0)
		}
		fv := vd.vals[i]
		dr, di := real(fv)-real(c), imag(fv)-imag(c)
		d += e.weight * (dr*dr + di*di)
	}
	return d * m.invL2
}

func oracleCutValues(m *matcher, vd *viewData, o geom.Euler, n int) []complex128 {
	rot := o.Matrix()
	xa, ya := rot.Col(0), rot.Col(1)
	out := make([]complex128, n)
	for i, e := range m.band[:n] {
		f3 := geom.Vec3{
			X: xa.X*float64(e.h) + ya.X*float64(e.k),
			Y: xa.Y*float64(e.h) + ya.Y*float64(e.k),
			Z: xa.Z*float64(e.h) + ya.Z*float64(e.k),
		}
		c := m.dft.Sample(f3, m.cfg.Interp)
		if vd.refW != nil {
			c *= complex(vd.refW[i], 0)
		}
		out[i] = c
	}
	return out
}

func oracleShiftedDistance(m *matcher, vd *viewData, cut []complex128, dx, dy float64) float64 {
	twoPiOverL := 2 * math.Pi / float64(m.l)
	n := len(cut)
	energy := vd.prefixE[n]
	if m.cfg.NormalizeScale {
		var ec, cross float64
		for i, e := range m.band[:n] {
			angle := -twoPiOverL * (float64(e.h)*dx + float64(e.k)*dy)
			s, cph := math.Sincos(angle)
			fv := vd.vals[i]
			fr := real(fv)*cph - imag(fv)*s
			fi := real(fv)*s + imag(fv)*cph
			c := cut[i]
			ec += e.weight * (real(c)*real(c) + imag(c)*imag(c))
			cross += e.weight * (fr*real(c) + fi*imag(c))
		}
		if ec == 0 || cross <= 0 {
			return energy * m.invL2
		}
		return (energy - cross*cross/ec) * m.invL2
	}
	var d float64
	for i, e := range m.band[:n] {
		angle := -twoPiOverL * (float64(e.h)*dx + float64(e.k)*dy)
		s, cph := math.Sincos(angle)
		fv := vd.vals[i]
		fr := real(fv)*cph - imag(fv)*s
		fi := real(fv)*s + imag(fv)*cph
		c := cut[i]
		dr, di := fr-real(c), fi-imag(c)
		d += e.weight * (dr*dr + di*di)
	}
	return d * m.invL2
}

// centerDistanceAt scores one centre shift against cut, whose energy
// scoreCut returned as ec, through the production path: the
// cross-spectrum refineCenter forms once per search, then one
// ramp-table evaluation.
func centerDistanceAt(m *matcher, vd *viewData, cut []complex128, ec, dx, dy float64) float64 {
	g := make([]complex128, len(cut))
	rp := m.newRamp()
	m.crossSpectrum(vd, cut, g)
	return m.centerDistance(vd, g, ec, dx, dy, &rp)
}

// centerRel is the comparison rule for centre distances. The
// least-squares metric keeps relDiff. The raw metric is formed as
// E_F + E_C − 2·cross, which cancels near a match, so its rounding
// lives on the scale of the band energy E/l² rather than of the result
// (the floor friedelRel takes).
func centerRel(m *matcher, vd *viewData, n int, a, b float64) float64 {
	if m.cfg.NormalizeScale {
		return relDiff(a, b)
	}
	return friedelRel(a, b, vd.prefixE[n]*m.invL2)
}

// oracleFixture builds a refiner + prepared view over a randomized
// configuration axis: normalization, interpolation and CTF cut
// weighting all covered.
func oracleFixture(t *testing.T, cfg Config, seed int64) (*Refiner, *viewData, *micrograph.Dataset) {
	t.Helper()
	truth := phantom.Asymmetric(20, 6, 1)
	truth.SphericalMask(8)
	ds := micrograph.Generate(truth, micrograph.GenParams{NumViews: 1, PixelA: 2, Seed: seed, ApplyCTF: cfg.CTFWeightCuts})
	dft := fourier.NewVolumeDFTPadded(truth, 2)
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := r.PrepareView(ds.Views[0].Image, ds.Views[0].CTF)
	if err != nil {
		t.Fatal(err)
	}
	return r, pv.vd, ds
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Max(math.Abs(a), math.Abs(b)))
}

func oracleConfigs() map[string]Config {
	base := DefaultConfig(20)
	raw := base
	raw.NormalizeScale = false
	nearest := base
	nearest.Interp = fourier.Nearest
	ctfW := base
	ctfW.CTFWeightCuts = true
	return map[string]Config{
		"normalized": base,
		"raw":        raw,
		"nearest":    nearest,
		"ctf-weight": ctfW,
	}
}

// TestFusedDistanceMatchesOracle compares the fused kernel against the
// scalar reference over randomized orientations and band prefixes for
// every metric configuration.
func TestFusedDistanceMatchesOracle(t *testing.T) {
	for name, cfg := range oracleConfigs() {
		t.Run(name, func(t *testing.T) {
			r, vd, _ := oracleFixture(t, cfg, 31)
			sc := r.m.newScratch()
			rng := rand.New(rand.NewSource(5))
			full := len(r.m.band)
			for trial := 0; trial < 120; trial++ {
				o := geom.Euler{
					Theta: rng.Float64() * 180,
					Phi:   rng.Float64() * 360,
					Omega: rng.Float64() * 360,
				}
				n := 1 + rng.Intn(full)
				got := r.m.distance(vd, o, n, sc)
				want := oracleDistance(r.m, vd, o, n)
				if relDiff(got, want) > 1e-12 {
					t.Fatalf("orient %v n=%d: fused %.17g, oracle %.17g", o, n, got, want)
				}
			}
		})
	}
}

// cutApartDistance is a candidate's distance with the cut sampled
// first (plain SampleCut, then the view's cut weights) and scored in a
// second loop over it, as the matcher did before the sampler scored its
// cuts: the sums ec = Σ w·(cr²+ci²) and cross = Σ w·(fr·cr+fi·ci) in
// slot order, then the metric — least squares, or the raw metric in its
// expanded form (E_F + E_C − 2·cross)/l².
func cutApartDistance(m *matcher, vd *viewData, o geom.Euler, cut []complex128) float64 {
	rot := o.Matrix()
	n := len(cut)
	m.smp.SampleCut(cut, m.fh[:n], m.fk[:n], rot.Col(0), rot.Col(1))
	var ec, cross float64
	for i, c := range cut {
		if vd.refW != nil {
			w := vd.refW[i]
			c = complex(real(c)*w, imag(c)*w)
			cut[i] = c
		}
		fv, w := vd.vals[i], m.wt[i]
		cr, ci := real(c), imag(c)
		ec += w * (cr*cr + ci*ci)
		cross += w * (real(fv)*cr + imag(fv)*ci)
	}
	return m.metric(vd.prefixE[n], ec, cross)
}

// TestCutDistanceFusedMatchesApart: under every metric configuration a
// candidate's distance (cutDistance, whose sums the sampler forms in
// its cut pass and which stores no cut) is bit for bit the cut sampled
// first and scored apart (cutApartDistance), and the centre search's
// scoreCut leaves that same cut behind.
func TestCutDistanceFusedMatchesApart(t *testing.T) {
	for name, cfg := range oracleConfigs() {
		t.Run(name, func(t *testing.T) {
			r, vd, _ := oracleFixture(t, cfg, 43)
			if name == "ctf-weight" && vd.refW == nil {
				t.Fatal("the ctf-weight view has no cut weights")
			}
			rng := rand.New(rand.NewSource(13))
			full := len(r.m.band)
			a, b := r.m.newScratch(), r.m.newScratch()
			o := geom.Euler{Theta: 40, Phi: 100, Omega: 200}
			for trial := 0; trial < 200; trial++ {
				if trial%20 == 0 {
					o = geom.Euler{Theta: rng.Float64() * 180, Phi: rng.Float64() * 360, Omega: rng.Float64() * 360}
				}
				o = o.Add(geom.Euler{Theta: 0.01 * float64(rng.Intn(3)-1), Phi: 0.01 * float64(rng.Intn(3)-1)})
				n := full - rng.Intn(4)
				if trial%3 == 0 {
					n = rng.Intn(full + 1)
				}
				got := r.m.cutDistance(vd, o, n, a.cells)
				want := cutApartDistance(r.m, vd, o, b.cut[:n])
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("orient %v n=%d: cutDistance %.17g, scored apart %.17g", o, n, got, want)
				}
				ec, cross := r.m.scoreCut(vd, o, a.cut[:n], a.cells)
				if d := r.m.metric(vd.prefixE[n], ec, cross); math.Float64bits(d) != math.Float64bits(want) {
					t.Fatalf("orient %v n=%d: scoreCut's sums give %.17g, scored apart %.17g", o, n, d, want)
				}
				for i := range a.cut[:n] {
					if math.Float64bits(real(a.cut[i])) != math.Float64bits(real(b.cut[i])) || math.Float64bits(imag(a.cut[i])) != math.Float64bits(imag(b.cut[i])) {
						t.Fatalf("orient %v n=%d slot %d: scoreCut left %v, SampleCut %v", o, n, i, a.cut[i], b.cut[i])
					}
				}
			}
		})
	}
}

// TestFusedShiftedDistanceMatchesOracle holds the centre kernel — the
// cross-spectrum plus separable ramp tables — and the fused cut
// construction to the per-coefficient phase ramp over the scalar cut
// sampler: random band prefixes and shifts within ±2 px, then every
// schedule level's prefix at the ±2 px corners and edges and at the
// level's own centre step.
func TestFusedShiftedDistanceMatchesOracle(t *testing.T) {
	for name, cfg := range oracleConfigs() {
		t.Run(name, func(t *testing.T) {
			r, vd, _ := oracleFixture(t, cfg, 37)
			rng := rand.New(rand.NewSource(9))
			check := func(o geom.Euler, n int, dx, dy float64) {
				t.Helper()
				cut := make([]complex128, n)
				ec, _ := r.m.scoreCut(vd, o, cut, fourier.NewCellMemo(n))
				wantCut := oracleCutValues(r.m, vd, o, n)
				for i := range cut {
					if d := math.Hypot(real(cut[i])-real(wantCut[i]), imag(cut[i])-imag(wantCut[i])); d > 1e-12 {
						t.Fatalf("cut %d at %v: fused %v, oracle %v", i, o, cut[i], wantCut[i])
					}
				}
				got := centerDistanceAt(r.m, vd, cut, ec, dx, dy)
				want := oracleShiftedDistance(r.m, vd, wantCut, dx, dy)
				if d := centerRel(r.m, vd, n, got, want); d > 1e-12 {
					t.Fatalf("shift (%g,%g) n=%d: kernel %.17g, oracle %.17g (rel %.3g)", dx, dy, n, got, want, d)
				}
			}
			randomOrient := func() geom.Euler {
				return geom.Euler{Theta: rng.Float64() * 180, Phi: rng.Float64() * 360, Omega: rng.Float64() * 360}
			}
			full := len(r.m.band)
			for trial := 0; trial < 60; trial++ {
				check(randomOrient(), 1+rng.Intn(full), (rng.Float64()-0.5)*4, (rng.Float64()-0.5)*4)
			}
			for _, lv := range r.cfg.Schedule {
				n := r.m.prefixLen(lv.effRMapFrac() * r.cfg.RMap)
				o := randomOrient()
				for _, s := range [][2]float64{{2, 2}, {-2, 2}, {2, -2}, {-2, -2}, {2, 0}, {0, -2}, {lv.CenterDelta, -lv.CenterDelta}} {
					check(o, n, s[0], s[1])
				}
			}
		})
	}
}

// TestDistanceWindowMatchesScalar checks the flat scan's batched
// window — candidates whose image axes come from the window's lattice
// rotation factors, scored through scorePending into their memo slots —
// slot for slot against individual distance evaluations at each
// orientation's Euler.Matrix, bit for bit, and against the oracle.
func TestDistanceWindowMatchesScalar(t *testing.T) {
	r, vd, _ := oracleFixture(t, DefaultConfig(20), 41)
	sc := r.m.newScratch()
	n := len(r.m.band)
	w := geom.CenteredWindow(geom.Euler{Theta: 55.3, Phi: 120, Omega: 299.7}, 4, 1)
	sc.window.build(w, w.Step)
	lw := &sc.window
	no := len(lw.omega)
	var st LevelStats
	var slots []int
	for row := range len(lw.rows) {
		for k := range no {
			key := orientKey{lw.kt[row/len(lw.phi)], lw.kp[row%len(lw.phi)], lw.ko[k]}
			slot, _ := sc.cache.claim(key)
			x, y := lw.axes(row, k)
			sc.pending = append(sc.pending, candidate{x: x, y: y, key: key, slot: slot})
			slots = append(slots, slot)
		}
	}
	r.scorePending(vd, n, &st, sc, sc.cache.gen)
	if st.Matchings != len(slots) || len(sc.pending) != 0 {
		t.Fatalf("scored %d of %d candidates and left %d pending", st.Matchings, len(slots), len(sc.pending))
	}
	sc2 := r.m.newScratch()
	for i, o := range w.Orientations() {
		got := sc.cache.dists[slots[i]]
		want := r.m.distance(vd, o, n, sc2)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("window slot %d (%v): batched %.17g, scalar %.17g", i, o, got, want)
		}
		wantOracle := oracleDistance(r.m, vd, o, n)
		if relDiff(got, wantOracle) > 1e-12 {
			t.Fatalf("window slot %d (%v): batched %.17g, oracle %.17g", i, o, got, wantOracle)
		}
	}
}

// clone deep-copies the per-view matching state.
func (vd *viewData) clone() *viewData {
	out := &viewData{
		vals:    append([]complex128(nil), vd.vals...),
		prefixE: append([]float64(nil), vd.prefixE...),
	}
	if vd.refW != nil {
		out.refW = append([]float64(nil), vd.refW...)
	}
	return out
}

// TestApplyShiftEquivalentToShiftedDistance: baking a shift into the
// view and then scoring it unshifted must agree with scoring the
// unshifted view at that shift against the same cut, at every schedule
// level's band prefix and for shifts within ±2 px.
func TestApplyShiftEquivalentToShiftedDistance(t *testing.T) {
	for name, cfg := range oracleConfigs() {
		t.Run(name, func(t *testing.T) {
			r, vd, _ := oracleFixture(t, cfg, 53)
			rng := rand.New(rand.NewSource(17))
			rp := r.m.newRamp()
			for trial := 0; trial < 20; trial++ {
				o := geom.Euler{
					Theta: rng.Float64() * 180,
					Phi:   rng.Float64() * 360,
					Omega: rng.Float64() * 360,
				}
				dx := (rng.Float64() - 0.5) * 4
				dy := (rng.Float64() - 0.5) * 4
				shiftedVd := vd.clone()
				r.m.applyShift(shiftedVd, dx, dy, &rp)
				for _, lv := range r.cfg.Schedule {
					n := r.m.prefixLen(lv.effRMapFrac() * r.cfg.RMap)
					cut := make([]complex128, n)
					ec, _ := r.m.scoreCut(vd, o, cut, fourier.NewCellMemo(n))
					want := centerDistanceAt(r.m, vd, cut, ec, dx, dy)
					got := centerDistanceAt(r.m, shiftedVd, cut, ec, 0, 0)
					if d := centerRel(r.m, vd, n, got, want); d > 1e-12 {
						t.Fatalf("n=%d: applyShift(%g,%g) then zero shift %.17g != shift in the kernel %.17g (rel %.3g)", n, dx, dy, got, want, d)
					}
				}
			}
		})
	}
}

// TestRefineViewMatchesOracleRefinement reruns a full multi-level
// refinement with a scalar-oracle refiner (kernel calls replaced by
// the reference loops) and demands identical trajectories: same
// orientation within 1e-9° and same centre.
func TestRefineViewMatchesOracleRefinement(t *testing.T) {
	l := 24
	truth := phantom.Asymmetric(l, 8, 1)
	truth.SphericalMask(0.4 * float64(l))
	ds := micrograph.Generate(truth, micrograph.GenParams{NumViews: 3, PixelA: 2, Seed: 61, CenterJitter: 1})
	dft := fourier.NewVolumeDFTPadded(truth, 2)
	cfg := DefaultConfig(l)
	// The scalar oracle below mirrors the flat sliding-window scan;
	// pin it so the production side runs the same search (the adaptive
	// descent has its own oracle comparison in adaptive_test.go).
	cfg.Search = SearchExhaustive
	cfg.Schedule = []Level{
		{RAngular: 1, WindowHalf: 4, CenterDelta: 1, CenterHalf: 1},
		{RAngular: 0.1, WindowHalf: 0.4, CenterDelta: 0.1, CenterHalf: 1},
	}
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inits := ds.PerturbedOrientations(2, 62)
	for i, v := range ds.Views {
		pv, _ := r.PrepareView(v.Image, v.CTF)
		res := r.RefineView(pv, inits[i])
		ov, _ := r.PrepareView(v.Image, v.CTF)
		ores := oracleRefineView(r, ov.vd, inits[i])
		if d := geom.AngularDistance(res.Orient, ores.Orient); d > 1e-9 {
			t.Fatalf("view %d: fused orient %v vs oracle %v (%.3g° apart)", i, res.Orient, ores.Orient, d)
		}
		if math.Hypot(res.Center[0]-ores.Center[0], res.Center[1]-ores.Center[1]) > 1e-9 {
			t.Fatalf("view %d: fused centre %v vs oracle %v", i, res.Center, ores.Center)
		}
	}
}

// oracleRefineView mirrors refineViewRange/refineLevel exactly but
// evaluates every matching through the scalar oracle loops.
func oracleRefineView(r *Refiner, vd *viewData, init geom.Euler) Result {
	res := Result{Orient: init}
	for _, lv := range r.cfg.Schedule {
		oracleRefineLevel(r, vd, &res, lv)
	}
	return res
}

func oracleRefineLevel(r *Refiner, vd *viewData, res *Result, lv Level) {
	const maxLevelIters = 4
	var st LevelStats
	n := r.m.prefixLen(lv.effRMapFrac() * r.cfg.RMap)
	if n == 0 {
		n = len(r.m.band)
	}
	cache := make(map[orientKey]float64)
	ramp := r.m.newRamp()
	eval := func(o geom.Euler) float64 {
		k := keyOf(o, lv.RAngular)
		if d, ok := cache[k]; ok {
			return d
		}
		d := oracleDistance(r.m, vd, o, n)
		cache[k] = d
		return d
	}
	for iter := 0; iter < maxLevelIters; iter++ {
		shifted := false
		if lv.CenterDelta > 0 && lv.CenterHalf > 0 {
			dx, dy, d := oracleRefineCenter(r, vd, res.Orient, lv, n)
			if dx != 0 || dy != 0 {
				r.m.applyShift(vd, dx, dy, &ramp)
				res.Center[0] += dx
				res.Center[1] += dy
				res.Distance = d
				if math.Hypot(dx, dy) >= 0.25*lv.CenterDelta {
					shifted = true
					cache = make(map[orientKey]float64)
				}
			}
		}
		w := geom.CenteredWindow(res.Orient, lv.WindowHalf, lv.RAngular)
		best, bestD := res.Orient, math.Inf(1)
		for {
			for _, o := range w.Orientations() {
				if d := eval(o); d < bestD {
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
		moved := geom.AngularDistance(best, res.Orient) > lv.RAngular/2
		res.Orient = best
		res.Distance = bestD
		if lv.CenterDelta <= 0 || lv.CenterHalf <= 0 || (!shifted && !moved) {
			break
		}
	}
}

func oracleRefineCenter(r *Refiner, vd *viewData, o geom.Euler, lv Level, n int) (float64, float64, float64) {
	var st LevelStats
	cut := oracleCutValues(r.m, vd, o, n)
	bestDx, bestDy := 0.0, 0.0
	bestD := oracleShiftedDistance(r.m, vd, cut, 0, 0)
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
				d := oracleShiftedDistance(r.m, vd, cut, dx, dy)
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
	if r.cfg.ParabolicCenter && bestD < math.Inf(1) {
		delta := lv.CenterDelta
		refineAxis := func(dxOff, dyOff float64) float64 {
			dm := oracleShiftedDistance(r.m, vd, cut, bestDx-dxOff*delta, bestDy-dyOff*delta)
			dp := oracleShiftedDistance(r.m, vd, cut, bestDx+dxOff*delta, bestDy+dyOff*delta)
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
			if d := oracleShiftedDistance(r.m, vd, cut, bestDx+ox, bestDy+oy); d < bestD {
				bestDx += ox
				bestDy += oy
				bestD = d
			}
		}
	}
	return bestDx, bestDy, bestD
}
