// Package reconstruct implements 3-D reconstruction of an electron
// density map from 2-D views with known orientations, by direct
// Fourier inversion in Cartesian coordinates — the reconstruction
// algorithm the paper's orientation refinement is used in conjunction
// with (its refs [18], [20]: "parallel algorithms for 3D
// reconstruction of asymmetric objects").
//
// Each view's centred 2-D DFT is a central section of the map's 3-D
// DFT (the projection-slice theorem), so reconstruction scatters every
// view coefficient back onto the 3-D Fourier lattice with trilinear
// spreading weights, normalizes by the accumulated weights, and
// inverse-transforms. The map is real, so its spectrum is Hermitian and
// each view coefficient's conjugate mate carries no new information:
// insertion walks only the Friedel half disc {h > 0} ∪ {h = 0, k ≥ 0},
// and Finish folds each voxel q with its mirror −q,
// F(q) = (num[q] + conj num[−q]) / (den[q] + den[−q]), over the
// non-redundant half z ≤ l/2 of the spectrum, which a complex-to-real
// inverse (fourier.GridFromHalfSpectrum) turns into the map.
//
// Two implementations coexist. The production path is the parallel
// kernel (parallel.go): one num/den accumulator pair, filled per chunk
// of views by a prepare phase parallel over views (real-input 2-D DFT,
// tabulated phase ramp, memoized CTF) and a scatter phase parallel over
// x-plane slabs, each slab owning its planes' voxels and walking the
// views in order — so every voxel sums in view order and the output is
// bit-identical across worker counts. The serial Reconstructor in this
// file is the //repro:oracle reference the parallel kernel is
// equivalence-tested against (≤1e-12).
package reconstruct

import (
	"fmt"
	"math"

	"repro/internal/ctf"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/pool"
	"repro/internal/volume"
)

// Options configures a reconstruction. Every view coefficient up to
// the Nyquist radius l/2 is inserted.
type Options struct {
	// WienerCTF enables per-view CTF weighting: coefficients are
	// accumulated as Σ CTF·F / (Σ CTF² + ε), the standard multi-view
	// Wiener inversion with ε = wienerEpsilon. Views must then be
	// inserted with their CTF parameters.
	WienerCTF bool
}

// wienerEpsilon regularizes the Wiener CTF division.
const wienerEpsilon = 0.1

// checkView rejects non-finite centre corrections and orientations
// before they reach the kernel. exp(iθ) of a NaN or Inf angle is NaN,
// and a single NaN coefficient spread onto the lattice silently
// corrupts every voxel it touches after normalization; a NaN or Inf
// Euler angle makes the scatter's lattice index meaningless.
func checkView(o geom.Euler, center [2]float64) error {
	if math.IsNaN(center[0]) || math.IsInf(center[0], 0) ||
		math.IsNaN(center[1]) || math.IsInf(center[1], 0) {
		return fmt.Errorf("reconstruct: non-finite centre correction (%v, %v)", center[0], center[1])
	}
	if !o.Finite() {
		return fmt.Errorf("reconstruct: non-finite orientation %v", o)
	}
	return nil
}

// friedelEntry applies the two exact rules of the half-disc insertion
// to band entry (h, k) of an l-box, whose value and weight are val and
// w. Finish's fold counts every inserted entry twice, as itself and as
// its conjugate mate, so the origin goes in at half value and half
// weight. (l/2, 0) and (0, l/2), present when l is even, are their
// own mates on the lattice: they go in as their real part, which is
// what the full disc's pair (±l/2 reading one aliased coefficient
// under one ramp value) averaged to.
func friedelEntry(h, k, l int, val complex128, w float64) (complex128, float64) {
	switch {
	case h == 0 && k == 0:
		return complex(real(val)*0.5, imag(val)*0.5), w * 0.5
	case 2*h == l || 2*k == l:
		return complex(real(val), 0), w
	}
	return val, w
}

// Reconstructor accumulates views into a 3-D Fourier volume, one view
// at a time on one goroutine. It is the reference implementation; new
// code should use the parallel kernel via NewSharded or FromViews.
type Reconstructor struct {
	l   int
	opt Options
	num []complex128
	den []float64
	n   int // views inserted
}

// New creates a serial reconstructor for l×l views and an l³ output
// map.
func New(l int, opt Options) *Reconstructor {
	if l < 2 {
		panic(fmt.Sprintf("reconstruct: invalid size %d", l))
	}
	return &Reconstructor{
		l:   l,
		opt: opt,
		num: make([]complex128, l*l*l),
		den: make([]float64, l*l*l),
	}
}

// Views returns how many views have been inserted.
func (r *Reconstructor) Views() int { return r.n }

// Insert adds one view at the given orientation. center is the centre
// correction in pixels as produced by the refiner (the shift that
// moves the particle origin onto the geometric image centre); it is
// applied as a phase ramp before insertion. p supplies the view's CTF
// parameters and is only consulted when Options.WienerCTF is set.
//
//repro:oracle
func (r *Reconstructor) Insert(im *volume.Image, o geom.Euler, center [2]float64, p ctf.Params) error {
	if im.L != r.l {
		return fmt.Errorf("reconstruct: view size %d, want %d", im.L, r.l)
	}
	if err := checkView(o, center); err != nil {
		return err
	}
	f := fourier.ImageDFT(im)
	if center[0] != 0 || center[1] != 0 {
		fourier.ShiftPhase(f, center[0], center[1])
	}
	rot := o.Matrix()
	xa, ya := rot.Col(0), rot.Col(1)
	l := r.l
	rmax := float64(l) / 2
	ri, r2 := int(rmax), rmax*rmax
	// The Friedel half disc, in the kernel's band order.
	for h := 0; h <= ri; h++ {
		for k := -ri; k <= ri; k++ {
			fh, fk := float64(h), float64(k)
			if fh*fh+fk*fk > r2 || h == 0 && k < 0 {
				continue
			}
			val := f.Data[wrap(h, l)*l+wrap(k, l)]
			w := 1.0
			if r.opt.WienerCTF {
				s := p.FreqOfBin(h, k, l)
				c := p.Eval(s)
				// Accumulate CTF·F in the numerator and CTF² in the
				// denominator.
				val *= complex(c, 0)
				w = c * c
			}
			val, w = friedelEntry(h, k, l, val, w)
			pt := geom.Vec3{
				X: xa.X*fh + ya.X*fk,
				Y: xa.Y*fh + ya.Y*fk,
				Z: xa.Z*fh + ya.Z*fk,
			}
			r.spread(pt, val, w)
		}
	}
	r.n++
	return nil
}

// spread distributes val with overall weight w onto the 8 lattice
// neighbours of the continuous frequency point pt. Points outside the
// lattice (any component beyond the Nyquist radius) are dropped whole:
// a partially spread coefficient would bias the local weight sum.
//
//repro:oracle
func (r *Reconstructor) spread(pt geom.Vec3, val complex128, w float64) {
	l := r.l
	ny := float64(l) / 2
	if pt.X < -ny || pt.X > ny || pt.Y < -ny || pt.Y > ny || pt.Z < -ny || pt.Z > ny {
		return
	}
	x0, y0, z0 := int(math.Floor(pt.X)), int(math.Floor(pt.Y)), int(math.Floor(pt.Z))
	fx, fy, fz := pt.X-float64(x0), pt.Y-float64(y0), pt.Z-float64(z0)
	// Wrap indices and weight factors hoisted out of the 2×2×2 scatter:
	// six wraps per coefficient instead of the twelve the nested loops
	// paid, and no branch in the innermost pass.
	var (
		xi = [2]int{wrap(x0, l), wrap(x0+1, l)}
		yi = [2]int{wrap(y0, l), wrap(y0+1, l)}
		zi = [2]int{wrap(z0, l), wrap(z0+1, l)}
		wx = [2]float64{1 - fx, fx}
		wy = [2]float64{1 - fy, fy}
		wz = [2]float64{1 - fz, fz}
	)
	for dx := 0; dx <= 1; dx++ {
		if wx[dx] == 0 {
			continue
		}
		for dy := 0; dy <= 1; dy++ {
			if wy[dy] == 0 {
				continue
			}
			rowBase := (xi[dx]*l + yi[dy]) * l
			wxy := wx[dx] * wy[dy]
			for dz := 0; dz <= 1; dz++ {
				if wz[dz] == 0 {
					continue
				}
				www := wxy * wz[dz]
				idx := rowBase + zi[dz]
				r.num[idx] += val * complex(www, 0)
				r.den[idx] += www * w
			}
		}
	}
}

func wrap(f, l int) int {
	f %= l
	if f < 0 {
		f += l
	}
	return f
}

// Finish folds the accumulated Fourier volume into the Hermitian half
// spectrum and inverse-transforms it to a real-space density map. The
// reconstructor may continue accumulating views afterwards (Finish
// does not mutate the accumulation state).
func (r *Reconstructor) Finish() *volume.Grid {
	return finishVolume(r.l, r.opt, r.num, r.den, 0)
}

// finishVolume is the shared back half of both reconstructors. One pool
// pass over x-planes (workers ≤ 0: GOMAXPROCS) fills the z ≤ l/2 half
// of the centred spectrum, l·l·(l/2+1) coefficients, by folding each
// voxel q of the half-disc accumulators with its mirror −q:
// F(q) = (num[q] + conj num[−q]) / (den[q] + den[−q]). The half is then
// inverted to the real map by fourier.GridFromHalfSpectrum. The inputs
// are not mutated, and the map is bit-identical at every worker count.
func finishVolume(l int, opt Options, num []complex128, den []float64, workers int) *volume.Grid {
	nh := l/2 + 1
	half := make([]complex128, l*l*nh)
	pool.RunIndexedLabeled("reconstruct.finish", l, workers, func(_, x int) {
		finishPlane(half, num, den, opt, x, l)
	})
	return fourier.GridFromHalfSpectrum(half, l, l, workers)
}

// finishPlane writes x-plane x of finishVolume's half spectrum. The
// weight is den[q] + den[−q], plus ε under the Wiener CTF; without it a
// voxel whose weight is ≤ 1e-9 (no view reached it) is 0. A
// self-conjugate voxel is its own mirror, so it keeps the real part of
// num/den; a mirror inside the half (z = 0 or z = l/2) gets the exact
// conjugate of its partner's value, since float addition commutes.
//
//repro:hotpath
func finishPlane(half, num []complex128, den []float64, opt Options, x, l int) {
	nh := l/2 + 1
	mx := (l - x) % l
	for y := 0; y < l; y++ {
		row := (x*l + y) * l
		mrow := (mx*l + (l-y)%l) * l
		dst := half[(x*l+y)*nh : (x*l+y+1)*nh]
		for z := range dst {
			i, m := row+z, mrow+(l-z)%l
			d := den[i] + den[m]
			var s float64
			switch {
			case opt.WienerCTF:
				s = 1 / (d + wienerEpsilon)
			case d > 1e-9:
				s = 1 / d
			default:
				dst[z] = 0
				continue
			}
			a, b := num[i], num[m]
			dst[z] = complex((real(a)+real(b))*s, (imag(a)-imag(b))*s)
		}
	}
}

// validateSet checks the per-view argument slices of the batch entry
// points once, up front, so the parallel kernels never fail mid-insert.
func validateSet(views []*volume.Image, orients []geom.Euler, centers [][2]float64, ctfs []ctf.Params, opt Options) error {
	if len(views) == 0 {
		return fmt.Errorf("reconstruct: no views")
	}
	if len(orients) != len(views) {
		return fmt.Errorf("reconstruct: %d views but %d orientations", len(views), len(orients))
	}
	if centers != nil && len(centers) != len(views) {
		return fmt.Errorf("reconstruct: %d views but %d centres", len(views), len(centers))
	}
	// ctfs are indexed per view whenever present, WienerCTF or not.
	if (opt.WienerCTF || len(ctfs) != 0) && len(ctfs) != len(views) {
		return fmt.Errorf("reconstruct: %d views but %d CTF params", len(views), len(ctfs))
	}
	l := views[0].L
	for i, im := range views {
		if im.L != l {
			return fmt.Errorf("reconstruct: view %d size %d, want %d", i, im.L, l)
		}
	}
	for i, o := range orients {
		var c [2]float64
		if centers != nil {
			c = centers[i]
		}
		if err := checkView(o, c); err != nil {
			return fmt.Errorf("view %d: %w", i, err)
		}
	}
	return nil
}

// taskAt assembles the i-th ViewTask of a batch call, tolerating nil
// centers/ctfs slices.
func taskAt(views []*volume.Image, orients []geom.Euler, centers [][2]float64, ctfs []ctf.Params, i int) ViewTask {
	t := ViewTask{Image: views[i], Orient: orients[i]}
	if centers != nil {
		t.Center = centers[i]
	}
	if ctfs != nil {
		t.CTF = ctfs[i]
	}
	return t
}

// FromViews reconstructs a map from views with per-view orientations
// and centre corrections in one call, on the parallel kernel with the
// default worker count. ctfs may be nil when Options.WienerCTF is off.
func FromViews(views []*volume.Image, orients []geom.Euler, centers [][2]float64, ctfs []ctf.Params, opt Options) (*volume.Grid, error) {
	return FromViewsParallel(views, orients, centers, ctfs, ParallelOptions{Options: opt})
}
