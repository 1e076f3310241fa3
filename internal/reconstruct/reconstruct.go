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
// spreading weights, normalizes by the accumulated weights, enforces
// Hermitian symmetry, and inverse-transforms.
//
// Two implementations coexist. The production path is the parallel
// sharded-accumulator kernel (parallel.go): per-shard num/den volumes
// fed by a worker pool over views, with a fused per-view insert
// (real-input 2-D DFT, tabulated phase ramp, memoized CTF, wrap-free
// trilinear scatter) and a fixed-order shard merge that keeps the
// output bit-identical across worker counts. The serial Reconstructor
// in this file is the //repro:oracle reference the parallel kernel is
// equivalence-tested against (≤1e-12).
package reconstruct

import (
	"fmt"
	"math"

	"repro/internal/ctf"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/volume"
)

// Options configures a reconstruction.
type Options struct {
	// RMax is the Fourier radius (frequency-index units) up to which
	// view coefficients are inserted; ≤0 means the Nyquist radius.
	RMax float64
	// WienerCTF enables per-view CTF weighting: coefficients are
	// accumulated as Σ CTF·F / (Σ CTF² + ε), the standard multi-view
	// Wiener inversion. Views must then be inserted with their CTF
	// parameters.
	WienerCTF bool
	// WienerEpsilon regularizes the CTF division; 0 selects 0.1.
	WienerEpsilon float64
}

// normalized returns the options with RMax clamped to the Nyquist
// radius and the Wiener epsilon defaulted, so the serial and sharded
// reconstructors resolve identical effective settings.
func (o Options) normalized(l int) Options {
	if o.RMax <= 0 || o.RMax > float64(l)/2 {
		o.RMax = float64(l) / 2
	}
	if o.WienerEpsilon <= 0 {
		o.WienerEpsilon = 0.1
	}
	return o
}

// checkCenter rejects non-finite centre corrections before they are
// baked into a phase ramp: exp(iθ) of a NaN or Inf angle is NaN, and a
// single NaN coefficient spread onto the lattice silently corrupts
// every voxel it touches after normalization.
func checkCenter(center [2]float64) error {
	if math.IsNaN(center[0]) || math.IsInf(center[0], 0) ||
		math.IsNaN(center[1]) || math.IsInf(center[1], 0) {
		return fmt.Errorf("reconstruct: non-finite centre correction (%v, %v)", center[0], center[1])
	}
	return nil
}

// Reconstructor accumulates views into a 3-D Fourier volume, one view
// at a time on one goroutine. It is the reference implementation; new
// code should use the sharded parallel kernel via NewSharded or
// FromViews.
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
		opt: opt.normalized(l),
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
	if err := checkCenter(center); err != nil {
		return err
	}
	f := fourier.ImageDFT(im)
	if center[0] != 0 || center[1] != 0 {
		fourier.ShiftPhase(f, center[0], center[1])
	}
	rot := o.Matrix()
	xa, ya := rot.Col(0), rot.Col(1)
	l := r.l
	ri := int(r.opt.RMax)
	r2 := r.opt.RMax * r.opt.RMax
	for h := -ri; h <= ri; h++ {
		for k := -ri; k <= ri; k++ {
			fh, fk := float64(h), float64(k)
			if fh*fh+fk*fk > r2 {
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

// Finish normalizes the accumulated Fourier volume, enforces Hermitian
// symmetry, and inverse-transforms to a real-space density map. The
// reconstructor may continue accumulating views afterwards (Finish
// does not mutate the accumulation state).
func (r *Reconstructor) Finish() *volume.Grid {
	return finishVolume(r.l, r.opt, r.num, r.den)
}

// finishVolume is the shared back half of both reconstructors:
// normalize the accumulated num/den pair, Hermitianize, and
// inverse-transform. The inputs are not mutated.
func finishVolume(l int, opt Options, num []complex128, den []float64) *volume.Grid {
	spec := volume.NewCGrid(l)
	if opt.WienerCTF {
		eps := opt.WienerEpsilon
		for i := range num {
			spec.Data[i] = num[i] * complex(1/(den[i]+eps), 0)
		}
	} else {
		for i := range num {
			if den[i] > 1e-9 {
				spec.Data[i] = num[i] * complex(1/den[i], 0)
			}
		}
	}
	spec.Hermitianize()
	// spec is ours and dead after this call, so the inverse transform
	// may run in its buffer.
	return fourier.GridFromSpectrum(spec.Data, l, l)
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
	for _, c := range centers {
		if err := checkCenter(c); err != nil {
			return err
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
// and centre corrections in one call, on the parallel sharded kernel
// with default worker and shard counts. ctfs may be nil when
// Options.WienerCTF is off.
func FromViews(views []*volume.Image, orients []geom.Euler, centers [][2]float64, ctfs []ctf.Params, opt Options) (*volume.Grid, error) {
	return FromViewsParallel(views, orients, centers, ctfs, ParallelOptions{Options: opt})
}

// SplitHalves reconstructs two independent maps from the odd- and
// even-numbered views (1-based, matching the paper's Fig. 4 procedure:
// "one using only odd numbered experimental views and the other, even
// numbered views"). The returned maps are (odd, even).
func SplitHalves(views []*volume.Image, orients []geom.Euler, centers [][2]float64, ctfs []ctf.Params, opt Options) (*volume.Grid, *volume.Grid, error) {
	return SplitHalvesParallel(views, orients, centers, ctfs, ParallelOptions{Options: opt})
}
