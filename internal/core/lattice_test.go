package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// sameAxes reports whether (x, y) are columns 0 and 1 of rot bit for
// bit.
func sameAxes(x, y geom.Vec3, rot geom.Mat3) bool {
	want := [2]geom.Vec3{rot.Col(0), rot.Col(1)}
	for c, v := range [2]geom.Vec3{x, y} {
		for _, p := range [3][2]float64{{v.X, want[c].X}, {v.Y, want[c].Y}, {v.Z, want[c].Z}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				return false
			}
		}
	}
	return true
}

// TestLatticeRotationsMatchMatrix: the image axes the search builds from
// lattice rotation factors are bit for bit columns 0 and 1 of
// Euler.Matrix at the candidate's angles — for whole flat-scan windows
// at every DefaultSchedule step, laid out as AppendOrientations lays
// them out and keyed as keyOf keys them, around on-lattice and
// off-lattice origins, at negative keys and angles past 360°, at θ = 0
// (where RotY has exact zeros and a sum of two −0 products shows), and
// for random descent keys of both signs, keys that share a
// direct-mapped entry, and a switch of step. It fails on axes formed as
// a·cos ω + b·sin ω without Mul's +0 start and zero term, on rows or
// factors indexed off by one, and on a cache kept across a step change.
func TestLatticeRotationsMatchMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var lw latticeWindow
	var windows, candidates int
	for _, lv := range DefaultSchedule() {
		step := lv.RAngular
		centres := []geom.Euler{
			{Theta: 0, Phi: 0, Omega: 200},  // θ = 0: exact zeros in RotY
			{Theta: 0, Phi: 90, Omega: 180}, // and φ, ω on the axes
			{Theta: 37 * step, Phi: -12 * step, Omega: 5 * step},
			{Theta: 37.123, Phi: 201.77, Omega: 359.5},  // off the lattice
			{Theta: -3.2, Phi: -721.45, Omega: -0.0037}, // negative keys
			{Theta: 179.99, Phi: 719.3, Omega: 1000.7},  // past 360°
			{Theta: 90 + step/3, Phi: 45.5 * step, Omega: -step / 7},
		}
		for range 4 {
			centres = append(centres, geom.Euler{Theta: rng.Float64()*400 - 200, Phi: rng.Float64()*1000 - 500, Omega: rng.Float64()*1000 - 500})
		}
		for _, c := range centres {
			w := geom.CenteredWindow(c, lv.WindowHalf, step)
			lw.build(w, step)
			orients := w.Orientations()
			np, no := len(lw.phi), len(lw.omega)
			if len(lw.theta)*np*no != len(orients) {
				t.Fatalf("step %g centre %v: lattice of %d×%d×%d, window of %d", step, c, len(lw.theta), np, no, len(orients))
			}
			for idx, o := range orients {
				i, j, k := idx/(np*no), idx/no%np, idx%no
				if lw.theta[i] != o.Theta || lw.phi[j] != o.Phi || lw.omega[k] != o.Omega {
					t.Fatalf("step %g centre %v slot %d: lattice angles (%v, %v, %v), window %v", step, c, idx, lw.theta[i], lw.phi[j], lw.omega[k], o)
				}
				if key := (orientKey{lw.kt[i], lw.kp[j], lw.ko[k]}); key != keyOf(o, step) {
					t.Fatalf("step %g centre %v slot %d: lattice key %v, keyOf %v", step, c, idx, key, keyOf(o, step))
				}
				x, y := lw.axes(i*np+j, k)
				if !sameAxes(x, y, o.Matrix()) {
					t.Fatalf("step %g window at %v, orientation %v: axes %v %v, Matrix columns %v %v", step, c, o, x, y, o.Matrix().Col(0), o.Matrix().Col(1))
				}
				candidates++
			}
			windows++
		}
	}

	// Descent keys: neighbourhoods and probes around random cells, keys
	// 64 apart that share an entry, and every step in turn, twice, so
	// a cache kept across a step change would answer for the wrong one.
	var lr latticeRotations
	var keys int
	for round := range 2 {
		for _, lv := range DefaultSchedule() {
			step := lv.RAngular
			lr.use(step)
			for range 20 {
				base := orientKey{rng.Int63n(4001) - 2000, rng.Int63n(4001) - 2000, rng.Int63n(4001) - 2000}
				if round == 1 {
					base = orientKey{rng.Int63n(401) - 200, rng.Int63n(401) - 200, rng.Int63n(401) - 200}
				}
				batch := appendLatticeNeighbors(nil, base)
				batch = append(batch,
					orientKey{base[0] + latticeSlots, base[1], base[2] - latticeSlots},
					orientKey{base[0], base[1] + latticeSlots/8, base[2]},
					orientKey{base[0] + 8, base[1] - 1, base[2] + latticeSlots},
					orientKey{-base[0], -base[1], -base[2]})
				for _, k := range batch {
					x, y := lr.axes(k)
					if rot := eulerOfKey(k, step).Matrix(); !sameAxes(x, y, rot) {
						t.Fatalf("step %g key %v: axes %v %v, Matrix columns %v %v", step, k, x, y, rot.Col(0), rot.Col(1))
					}
					keys++
				}
			}
		}
	}
	t.Logf("%d windows, %d window candidates, %d descent keys", windows, candidates, keys)
}

// TestCenterRampsOncePerShift: the centre box's phase-ramp tables are
// filled once per distinct shift per axis — a 3×3 box, walked as
// refineCenter walks it (dx = cx + i·δ outside, dy = cy + j·δ inside),
// fills three x tables and three y tables, and a second box on the
// same shifts fills none — and every box distance, and every view
// shift applied through the same tables, equals one from fresh tables
// bit for bit.
func TestCenterRampsOncePerShift(t *testing.T) {
	r, vd, _ := oracleFixture(t, DefaultConfig(20), 41)
	n := len(r.m.band)
	cut := make([]complex128, n)
	o := geom.Euler{Theta: 55, Phi: 120, Omega: 300}
	ec, _ := r.m.scoreCut(vd, o, cut, r.m.newScratch().cells)
	g := make([]complex128, n)
	r.m.crossSpectrum(vd, cut, g)
	for _, lv := range DefaultSchedule() {
		rp := r.m.newRamp()
		cx, cy := 0.37*lv.CenterDelta, -1.3*lv.CenterDelta
		box := func() {
			for i := -1; i <= 1; i++ {
				for j := -1; j <= 1; j++ {
					dx := cx + float64(i)*lv.CenterDelta
					dy := cy + float64(j)*lv.CenterDelta
					got := r.m.centerDistance(vd, g, ec, dx, dy, &rp)
					fresh := r.m.newRamp()
					want := r.m.centerDistance(vd, g, ec, dx, dy, &fresh)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("δ %g shift (%g, %g): cached ramps %.17g, fresh %.17g", lv.CenterDelta, dx, dy, got, want)
					}
				}
			}
		}
		box()
		if rp.x.fills != 3 || rp.y.fills != 3 {
			t.Fatalf("δ %g: a 3×3 box filled %d x and %d y tables, want 3 and 3", lv.CenterDelta, rp.x.fills, rp.y.fills)
		}
		box()
		if rp.x.fills != 3 || rp.y.fills != 3 {
			t.Fatalf("δ %g: the same box again filled %d x and %d y tables in all, want 3 and 3", lv.CenterDelta, rp.x.fills, rp.y.fills)
		}
		// applyShift reads the same cache.
		a, b := vd.clone(), vd.clone()
		fresh := r.m.newRamp()
		r.m.applyShift(a, cx, cy-lv.CenterDelta, &rp)
		r.m.applyShift(b, cx, cy-lv.CenterDelta, &fresh)
		for i := range a.vals {
			if math.Float64bits(real(a.vals[i])) != math.Float64bits(real(b.vals[i])) || math.Float64bits(imag(a.vals[i])) != math.Float64bits(imag(b.vals[i])) {
				t.Fatalf("δ %g entry %d: shifted through cached ramps %v, fresh %v", lv.CenterDelta, i, a.vals[i], b.vals[i])
			}
		}
	}
}
