package core

import (
	"math"

	"repro/internal/geom"
)

// candidate is one fresh orientation of a search batch: the image axes
// of its cut, its lattice key and the memo slot its distance lands in.
type candidate struct {
	x, y geom.Vec3
	key  orientKey
	slot int
}

// imageAxes returns columns 0 and 1 of the product a·b, the image axes
// of the rotation a·b. Each element is Mat3.Mul's sum, zero term
// included, in Mul's order, so the axes are bit for bit the columns of
// a.Mul(b): with a = RotZ(φ)·RotY(θ), formed by Mul, and b = RotZ(ω),
// those of Euler{θ, φ, ω}.Matrix(), which multiplies left to right.
func imageAxes(a, b *geom.Mat3) (x, y geom.Vec3) {
	var c [3][2]float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			s := 0.0
			for k := 0; k < 3; k++ {
				s += a[i][k] * b[k][j]
			}
			c[i][j] = s
		}
	}
	return geom.Vec3{X: c[0][0], Y: c[1][0], Z: c[2][0]}, geom.Vec3{X: c[0][1], Y: c[1][1], Z: c[2][1]}
}

// latticeWindow is one window of the flat scan as a lattice: each
// axis's values, computed as Window.AppendOrientations computes them,
// their level-grid keys (keyOf, axis by axis), the rotation factor of
// each θ and each ω, and A = RotZ(φ)·RotY(θ) per (θ, φ) row. A window
// of w_θ·w_φ·w_ω candidates then costs w_θ + w_φ + w_ω Sincos pairs and
// w_θ·w_φ products for its rotations, and each candidate only its two
// image axes. The slices are worker scratch, sized for the schedule's
// windows when the scratch is made.
type latticeWindow struct {
	theta, phi, omega []float64
	kt, kp, ko        []int64
	ry, rz            []geom.Mat3 // RotY of each θ; RotZ of each φ, then of each ω
	rows              []geom.Mat3 // A of row i·w_φ + j: RotZ(φ_j)·RotY(θ_i)
}

// newLatticeWindow allocates a window lattice for up to n samples per
// axis.
func newLatticeWindow(n int) latticeWindow {
	f, k, m := make([]float64, 3*n), make([]int64, 3*n), make([]geom.Mat3, 3*n+n*n)
	return latticeWindow{
		theta: f[:0:n], phi: f[n : n : 2*n], omega: f[2*n : 2*n : 3*n],
		kt: k[:0:n], kp: k[n : n : 2*n], ko: k[2*n : 2*n : 3*n],
		ry: m[:0:n], rz: m[n : n : 3*n], rows: m[3*n : 3*n : 3*n+n*n],
	}
}

// build lays out window w on the level grid of step step.
//
//repro:hotpath
func (lw *latticeWindow) build(w geom.Window, step float64) {
	nt, np, no := w.Counts()
	lw.theta, lw.kt = latticeAxis(lw.theta[:0], lw.kt[:0], w.Min.Theta, w.Step, step, nt)
	lw.phi, lw.kp = latticeAxis(lw.phi[:0], lw.kp[:0], w.Min.Phi, w.Step, step, np)
	lw.omega, lw.ko = latticeAxis(lw.omega[:0], lw.ko[:0], w.Min.Omega, w.Step, step, no)
	lw.ry, lw.rz, lw.rows = lw.ry[:0], lw.rz[:0], lw.rows[:0]
	for _, t := range lw.theta {
		//replint:allow hotpathalloc worker-owned scratch sized for the schedule's windows by newLatticeWindow
		lw.ry = append(lw.ry, geom.RotY(geom.DegToRad(t)))
	}
	for _, p := range lw.phi {
		//replint:allow hotpathalloc worker-owned scratch sized for the schedule's windows by newLatticeWindow
		lw.rz = append(lw.rz, geom.RotZ(geom.DegToRad(p)))
	}
	for _, o := range lw.omega {
		//replint:allow hotpathalloc worker-owned scratch sized for the schedule's windows by newLatticeWindow
		lw.rz = append(lw.rz, geom.RotZ(geom.DegToRad(o)))
	}
	for i := range lw.theta {
		for j := range lw.phi {
			//replint:allow hotpathalloc worker-owned scratch sized for the schedule's windows by newLatticeWindow
			lw.rows = append(lw.rows, lw.rz[j].Mul(lw.ry[i]))
		}
	}
}

// latticeAxis appends an axis's n values min + i·wstep and their keys
// round(value/step) to vals and keys.
func latticeAxis(vals []float64, keys []int64, min, wstep, step float64, n int) ([]float64, []int64) {
	for i := 0; i < n; i++ {
		v := min + float64(i)*wstep
		vals = append(vals, v)
		keys = append(keys, int64(math.Round(v/step)))
	}
	return vals, keys
}

// axes returns the image axes of the window's candidate at row
// i·w_φ + j and ω index k.
func (lw *latticeWindow) axes(row, k int) (x, y geom.Vec3) {
	return imageAxes(&lw.rows[row], &lw.rz[len(lw.phi)+k])
}

// latticeSlots is the size of each of latticeRotations' direct-mapped
// tables, a power of two: a descent round's 3×3×3 neighbourhood spans
// three indices per axis and nine (θ, φ) rows.
const latticeSlots = 32

// latticeRotations is the descent's cache of rotation factors on one
// level's lattice, keyed by lattice index (the angles eulerOfKey
// gives): RotY(θ) and RotZ of an index, shared by φ and ω, and
// A = RotZ(φ)·RotY(θ) per (θ, φ) index pair. Each table is
// direct-mapped: an index replaces whatever its entry held. Entries
// hold for one step only; use switches the cache to a level's step,
// forgetting everything when it changes.
type latticeRotations struct {
	step float64
	y, z [latticeSlots]rotEntry
	rows [latticeSlots]rowEntry
}

type rotEntry struct {
	k  int64
	ok bool
	m  geom.Mat3
}

type rowEntry struct {
	kt, kp int64
	ok     bool
	m      geom.Mat3
}

// use switches the cache to the lattice of step step.
func (lr *latticeRotations) use(step float64) {
	if math.Float64bits(step) == math.Float64bits(lr.step) {
		return
	}
	lr.step = step
	for i := range lr.y {
		lr.y[i].ok, lr.z[i].ok, lr.rows[i].ok = false, false, false
	}
}

// rotY returns RotY of lattice index k's angle.
func (lr *latticeRotations) rotY(k int64) *geom.Mat3 {
	e := &lr.y[uint64(k)%latticeSlots]
	if !e.ok || e.k != k {
		e.k, e.ok, e.m = k, true, geom.RotY(geom.DegToRad(float64(k)*lr.step))
	}
	return &e.m
}

// rotZ returns RotZ of lattice index k's angle.
func (lr *latticeRotations) rotZ(k int64) *geom.Mat3 {
	e := &lr.z[uint64(k)%latticeSlots]
	if !e.ok || e.k != k {
		e.k, e.ok, e.m = k, true, geom.RotZ(geom.DegToRad(float64(k)*lr.step))
	}
	return &e.m
}

// axes returns the image axes of lattice key k: bit for bit columns 0
// and 1 of eulerOfKey(k, step).Matrix().
func (lr *latticeRotations) axes(k orientKey) (x, y geom.Vec3) {
	e := &lr.rows[uint64(k[0]+8*k[1])%latticeSlots]
	if !e.ok || e.kt != k[0] || e.kp != k[1] {
		e.kt, e.kp, e.ok, e.m = k[0], k[1], true, lr.rotZ(k[1]).Mul(*lr.rotY(k[0]))
	}
	return imageAxes(&e.m, lr.rotZ(k[2]))
}
