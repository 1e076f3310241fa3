// Package fourier implements the Fourier-domain geometry of the
// orientation-refinement algorithm: centred 2-D/3-D DFTs of images and
// density maps, extraction of central-section cuts of the 3-D DFT at
// arbitrary orientations (the projection-slice theorem), phase-ramp
// image shifts for centre refinement, and the adjoint insertion
// operation used by the Fourier-inversion reconstruction.
//
// Centred transforms. The lab convention places the particle origin at
// voxel/pixel l/2. Package fft computes DFTs relative to index 0, so
// every transform here is "centred" by multiplying coefficient f by
// exp(+2πi·(Σf)·(l/2)/l), which removes the rapid phase ramp caused by
// the origin offset. Centred spectra are smooth for compact particles,
// which is what makes trilinear interpolation between lattice points
// accurate — the paper's "interpolation in the 3-D Fourier domain"
// (step f) depends on exactly this.
//
// Real maps, Hermitian spectra. Maps and views are real, so a 3-D
// spectrum here is stored as its non-redundant half only — the
// coefficients with z index ≤ L/2, the others being their conjugate
// mirrors D̂(−q) = conj D̂(q). The forward transform (fft.RealPlan3D)
// writes that half straight from the unpadded map, readers recover a
// mirrored coefficient through VolumeDFT.At or the Sampler's corner
// gather, and the inverse (GridFromHalfSpectrum) reads the half alone,
// two real output lines per complex FFT.
package fourier

import (
	"math"
	"math/cmplx"

	"repro/internal/fft"
	"repro/internal/geom"
	"repro/internal/pool"
	"repro/internal/volume"
)

// Interpolation selects how central sections sample the 3-D DFT
// lattice.
type Interpolation int

const (
	// Trilinear is 8-point linear interpolation, the production
	// choice.
	Trilinear Interpolation = iota
	// Nearest is nearest-neighbour sampling, kept as an ablation
	// baseline: cheaper but much less accurate.
	Nearest
)

// VolumeDFT is the centred 3-D DFT D̂ of an electron-density map. Data
// holds its non-redundant half: coefficient (x, y, z), with x, y in
// [0, L) and z in [0, L/2], at (x·L + y)·(L/2+1) + z, in standard DFT
// index order on each axis — the layout GridFromHalfSpectrum inverts.
// At reads any coefficient, the mirrored half included. A VolumeDFT is
// immutable once built and safe for concurrent reads, which is how the
// refinement distributes one replicated copy to every node.
//
// The spectrum may be oversampled: NewVolumeDFTPadded embeds the map
// in a larger box before transforming, which samples the same
// continuous spectrum on a Pad-times finer lattice and sharply reduces
// the interpolation error of central-section extraction. SrcL is
// always the original map (and view) size; L = Pad·SrcL is the lattice
// edge of Data.
type VolumeDFT struct {
	L    int
	SrcL int
	Data []complex128
}

// NewVolumeDFT computes the centred 3-D DFT of g with no oversampling.
func NewVolumeDFT(g *volume.Grid) *VolumeDFT {
	return NewVolumeDFTPadded(g, 1)
}

// NewVolumeDFTPadded embeds g centrally in a box pad times larger,
// then computes the centred 3-D DFT. pad = 2 is the usual production
// choice for accurate trilinear slice extraction. The map is real, so
// the transform runs through the Hermitian-symmetry real-input path —
// half the floating-point work of the complex 3-D FFT — which reads g
// in place as the centre of the zero box and writes only the half
// spectrum.
func NewVolumeDFTPadded(g *volume.Grid, pad int) *VolumeDFT {
	if pad < 1 {
		panic("fourier: pad must be ≥ 1")
	}
	bl := pad * g.L
	data := make([]complex128, bl*bl*(bl/2+1))
	// The plan puts voxel l/2 (the particle origin) on bl/2.
	fft.NewRealPlan3D(bl).Forward(g.Data, g.L, data)
	ramp := centerRamp(bl, +1)
	for x := 0; x < bl; x++ {
		rampPlane(data, ramp, x, bl)
	}
	return &VolumeDFT{L: bl, SrcL: g.L, Data: data}
}

// Pad returns the oversampling factor L/SrcL.
func (v *VolumeDFT) Pad() int { return v.L / v.SrcL }

// At returns the coefficient at lattice index (x, y, z), each in
// [0, L). A z index up to L/2 is stored; above it the coefficient is
// the conjugate of its stored mirror ((−x) mod L, (−y) mod L, L − z).
func (v *VolumeDFT) At(x, y, z int) complex128 {
	l, nh := v.L, v.L/2+1
	if z < nh {
		return v.Data[(x*l+y)*nh+z]
	}
	return cmplx.Conj(v.Data[(mirrorIndex(x, l)*l+mirrorIndex(y, l))*nh+l-z])
}

// mirrorIndex is the array index of frequency −f for the index i of f,
// (−i) mod l, for i in [0, l).
func mirrorIndex(i, l int) int {
	if i == 0 {
		return 0
	}
	return l - i
}

// Grid converts the centred spectrum back to a real-space density map
// of the original size (inverse of NewVolumeDFTPadded, cropping the
// padding); v is left untouched.
func (v *VolumeDFT) Grid() *volume.Grid {
	return GridFromHalfSpectrum(append([]complex128(nil), v.Data...), v.L, v.SrcL, 0)
}

// GridFromHalfSpectrum is the complex-to-real inverse of a centred
// spectrum of a real map: half holds its z ≤ bl/2 half, bl·bl·(bl/2+1)
// coefficients at (x·bl + y)·(bl/2+1) + z, of an l-voxel map padded to
// bl. The mirror half is implied by Hermitian symmetry and never
// stored. half is the transform's scratch and is clobbered. workers ≤ 0
// selects GOMAXPROCS; the map is bit-identical at every worker count.
//
// The passes run on internal/pool with a plan and buffers per worker:
// complex y lines per x-plane with the centring ramp applied as they
// are gathered, complex x lines per cropped y, then per cropped x-plane
// a z pass that inverts two real lines per complex FFT — the packing
// of fft.RealPlan3D.Forward run backwards. Only the lines the crop
// reads are transformed after the first pass.
func GridFromHalfSpectrum(half []complex128, bl, l, workers int) *volume.Grid {
	nh := bl/2 + 1
	if len(half) != bl*bl*nh {
		panic("fourier: half spectrum length is not bl·bl·(bl/2+1)")
	}
	nw := pool.Workers(bl, workers)
	ws := make([]halfWorker, nw)
	for w := range ws {
		ws[w] = halfWorker{plan: fft.NewPlan(bl), line: make([]complex128, bl), slab: make([]complex128, nh*bl)}
	}
	ramp := centerRamp(bl, -1)
	off := bl/2 - l/2
	pool.RunIndexedLabeled("fourier.inverse.y", bl, nw, func(w, x int) {
		ws[w].yPass(half, ramp, x, bl)
	})
	pool.RunIndexedLabeled("fourier.inverse.x", l, nw, func(w, y int) {
		ws[w].xPass(half, y+off, bl, l)
	})
	g := volume.NewGrid(l)
	zero := make([]complex128, nh)
	pool.RunIndexedLabeled("fourier.inverse.z", l, nw, func(w, x int) {
		ws[w].zPass(g.Data[x*l*l:(x+1)*l*l], half, zero, x+off, bl, l)
	})
	return g
}

// halfWorker is one pool worker's state in GridFromHalfSpectrum: a
// plan, a line buffer, and an x-pass slab of nh x-lines.
type halfWorker struct {
	plan       *fft.Plan
	line, slab []complex128
}

// yPass applies the centring ramp to x-plane x of the half spectrum
// and inverse-transforms its y lines, one per z ≤ bl/2.
//
//repro:hotpath
func (hw *halfWorker) yPass(half, ramp []complex128, x, bl int) {
	nh := bl/2 + 1
	base := x * bl * nh
	line := hw.line
	for z := 0; z < nh; z++ {
		rxz := ramp[x] * ramp[z]
		for y := range line {
			line[y] = half[base+y*nh+z] * (rxz * ramp[y])
		}
		hw.plan.Inverse(line)
		for y, v := range line {
			half[base+y*nh+z] = v
		}
	}
}

// xPass inverse-transforms the x lines of row y, one per z ≤ bl/2,
// writing back only the x-planes the crop to l keeps. The lines are
// gathered into a z-major slab first, so every read of the half is a
// contiguous run of nh coefficients.
//
//repro:hotpath
func (hw *halfWorker) xPass(half []complex128, y, bl, l int) {
	nh := bl/2 + 1
	slab := hw.slab
	for x := 0; x < bl; x++ {
		row := half[(x*bl+y)*nh : (x*bl+y+1)*nh]
		for z, v := range row {
			slab[z*bl+x] = v
		}
	}
	for z := 0; z < nh; z++ {
		hw.plan.Inverse(slab[z*bl : (z+1)*bl])
	}
	off := bl/2 - l/2
	for x := off; x < off+l; x++ {
		row := half[(x*bl+y)*nh : (x*bl+y+1)*nh]
		for z := range row {
			row[z] = slab[z*bl+x]
		}
	}
}

// zPass turns the cropped z half-lines of x-plane x into the real map
// plane dst (l·l voxels), two lines per complex FFT: with half-lines a
// and b of real lines p and q, it fills the full spectrum A + i·B from
// A[bl−k] = conj(A[k]), and the inverse yields p + i·q. The imaginary
// parts at k = 0 and k = bl/2 are dropped, as the real part of a
// complex inverse drops them. An odd l pairs its last line with zero.
//
//repro:hotpath
func (hw *halfWorker) zPass(dst []float64, half, zero []complex128, x, bl, l int) {
	nh := bl/2 + 1
	off := bl/2 - l/2
	line := hw.line
	for y := 0; y < l; y += 2 {
		a := half[(x*bl+y+off)*nh : (x*bl+y+off+1)*nh]
		b := zero
		if y+1 < l {
			b = half[(x*bl+y+1+off)*nh : (x*bl+y+off+2)*nh]
		}
		line[0] = complex(real(a[0]), real(b[0]))
		for k := 1; k < bl-k; k++ {
			ar, ai, br, bi := real(a[k]), imag(a[k]), real(b[k]), imag(b[k])
			line[k] = complex(ar-bi, ai+br)
			line[bl-k] = complex(ar+bi, br-ai)
		}
		if bl%2 == 0 {
			line[bl/2] = complex(real(a[bl/2]), real(b[bl/2]))
		}
		hw.plan.Inverse(line)
		p := dst[y*l : (y+1)*l]
		for z := range p {
			p[z] = real(line[z+off])
		}
		if y+1 < l {
			q := dst[(y+1)*l : (y+2)*l]
			for z := range q {
				q[z] = imag(line[z+off])
			}
		}
	}
}

// Sample returns the spectrum value at a continuous signed-frequency
// point f in *image* frequency units (cycles per SrcL-pixel box, so
// the view's Nyquist sphere has radius SrcL/2), using the given
// interpolation. An oversampled spectrum is addressed on its finer
// lattice transparently. Frequencies beyond Nyquist return zero.
//
// Sample is the scalar reference implementation; production sampling
// goes through the fused Sampler (NewSampler/At/SampleCut), which is
// bit-identical. Oracle tests hold the two together.
//
//repro:oracle
func (v *VolumeDFT) Sample(f geom.Vec3, interp Interpolation) complex128 {
	if pad := v.Pad(); pad != 1 {
		s := float64(pad)
		f = geom.Vec3{X: f.X * s, Y: f.Y * s, Z: f.Z * s}
	}
	l := v.L
	ny := float64(l) / 2
	if f.X < -ny || f.X > ny || f.Y < -ny || f.Y > ny || f.Z < -ny || f.Z > ny {
		return 0
	}
	if interp == Nearest {
		return v.At(wrapFreq(int(math.Round(f.X)), l), wrapFreq(int(math.Round(f.Y)), l), wrapFreq(int(math.Round(f.Z)), l))
	}
	x0, y0, z0 := int(math.Floor(f.X)), int(math.Floor(f.Y)), int(math.Floor(f.Z))
	fx, fy, fz := f.X-float64(x0), f.Y-float64(y0), f.Z-float64(z0)
	var sum complex128
	for dx := 0; dx <= 1; dx++ {
		wx := 1 - fx
		if dx == 1 {
			wx = fx
		}
		if wx == 0 {
			continue
		}
		xi := wrapFreq(x0+dx, l)
		for dy := 0; dy <= 1; dy++ {
			wy := 1 - fy
			if dy == 1 {
				wy = fy
			}
			if wy == 0 {
				continue
			}
			yi := wrapFreq(y0+dy, l)
			for dz := 0; dz <= 1; dz++ {
				wz := 1 - fz
				if dz == 1 {
					wz = fz
				}
				if wz == 0 {
					continue
				}
				sum += complex(wx*wy*wz, 0) * v.At(xi, yi, wrapFreq(z0+dz, l))
			}
		}
	}
	return sum
}

// wrapFreq maps a signed frequency to its DFT array index, wrapping
// modulo l (Nyquist-adjacent corners alias, which matches the
// periodicity of the DFT).
func wrapFreq(f, l int) int {
	f %= l
	if f < 0 {
		f += l
	}
	return f
}

// ExtractSlice computes the central section C of the volume spectrum
// at orientation o: C[h,k] = D̂(h·x̂' + k·ŷ') for all signed image
// frequencies (h,k) with h²+k² ≤ rmax², where x̂', ŷ' are the image
// axes of the view (columns 0 and 1 of the orientation matrix).
// Out-of-band coefficients are zero. The result is in the same
// centred convention as ImageDFT, so it can be compared directly with
// the transform of an experimental view.
func (v *VolumeDFT) ExtractSlice(o geom.Euler, rmax float64, interp Interpolation) *volume.CImage {
	out := volume.NewCImage(v.SrcL)
	v.ExtractSliceInto(out, o, rmax, interp)
	return out
}

// ExtractSliceInto is ExtractSlice writing into a caller-provided
// image, zeroing it first; it avoids per-cut allocation in the hot
// search loop.
func (v *VolumeDFT) ExtractSliceInto(dst *volume.CImage, o geom.Euler, rmax float64, interp Interpolation) {
	l := v.SrcL
	if dst.L != l {
		panic("fourier: slice destination size mismatch")
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	m := o.Matrix()
	xAxis, yAxis := m.Col(0), m.Col(1)
	rmax = math.Min(rmax, float64(l)/2)
	ri := int(rmax)
	r2 := rmax * rmax
	s := v.NewSampler(interp)
	for h := -ri; h <= ri; h++ {
		fh := float64(h)
		for k := -ri; k <= ri; k++ {
			fk := float64(k)
			if fh*fh+fk*fk > r2 {
				continue
			}
			f := xAxis.Scale(fh).Add(yAxis.Scale(fk))
			val := s.At(f.X, f.Y, f.Z)
			dst.Data[wrapFreq(h, l)*l+wrapFreq(k, l)] = val
		}
	}
}

// ImageDFT computes the centred 2-D DFT F of a view. Views are real,
// so the transform runs through the Hermitian-symmetry real-input path
// (about half the work of the complex 2-D FFT).
func ImageDFT(im *volume.Image) *volume.CImage {
	c := volume.NewCImage(im.L)
	ImageDFTInto(c, im)
	return c
}

// ImageDFTInto is ImageDFT writing into a caller-provided image,
// avoiding the per-view spectrum allocation in streaming paths. For
// repeated transforms of equally sized views prefer a ViewTransformer,
// which additionally reuses the plan scratch and ramp table.
func ImageDFTInto(dst *volume.CImage, im *volume.Image) {
	NewViewTransformer(im.L).Transform(im, dst)
}

// ViewTransformer performs repeated centred 2-D DFTs of equally sized
// real views through the real-input FFT path, owning all scratch (plan
// buffers and the centring ramp) so steady-state transforms allocate
// nothing. Not safe for concurrent use; each worker should own one.
type ViewTransformer struct {
	l    int
	plan *fft.RealPlan2D
	ramp []complex128
}

// NewViewTransformer creates a transformer for l×l views.
func NewViewTransformer(l int) *ViewTransformer {
	return &ViewTransformer{l: l, plan: fft.NewRealPlan2D(l, l), ramp: centerRamp(l, +1)}
}

// Transform computes the centred 2-D DFT of im into dst (fully
// overwritten), in the same convention as ImageDFT.
func (t *ViewTransformer) Transform(im *volume.Image, dst *volume.CImage) {
	if im.L != t.l || dst.L != t.l {
		panic("fourier: ViewTransformer size mismatch")
	}
	t.plan.Forward(im.Data, dst.Data)
	for j := 0; j < t.l; j++ {
		rj := t.ramp[j]
		row := dst.Data[j*t.l : (j+1)*t.l]
		for k := range row {
			row[k] *= rj * t.ramp[k]
		}
	}
}

// InverseImageDFT converts a centred spectrum back to a real image.
func InverseImageDFT(f *volume.CImage) *volume.Image {
	l := f.L
	data := append([]complex128(nil), f.Data...)
	applyCenterRamp2D(data, l, -1)
	fft.NewPlan2D(l, l).Inverse(data)
	im := volume.NewImage(l)
	for i, v := range data {
		im.Data[i] = real(v)
	}
	return im
}

// ShiftPhase applies the Fourier shift theorem in place: the image is
// translated by (dx, dy) pixels, F[h,k] *= exp(−2πi(h·dx + k·dy)/l).
// This is how centre refinement (step k) moves the particle origin
// without resampling pixels.
func ShiftPhase(f *volume.CImage, dx, dy float64) {
	l := f.L
	for j := 0; j < l; j++ {
		h := float64(fft.FreqIndex(j, l))
		for k := 0; k < l; k++ {
			kk := float64(fft.FreqIndex(k, l))
			angle := -2 * math.Pi * (h*dx + kk*dy) / float64(l)
			f.Data[j*l+k] *= cmplx.Exp(complex(0, angle))
		}
	}
}

// rampPlane multiplies coefficient (fx,fy,fz) of x-plane x of a half
// spectrum by ramp[fx]·ramp[fy]·ramp[fz], where ramp = centerRamp(l,
// sign) converts between index-0-origin and centred spectra.
func rampPlane(data, ramp []complex128, x, l int) {
	nh := l/2 + 1
	rx := ramp[x]
	for y := 0; y < l; y++ {
		rxy := rx * ramp[y]
		row := data[(x*l+y)*nh : (x*l+y+1)*nh]
		for z := range row {
			row[z] *= rxy * ramp[z]
		}
	}
}

func applyCenterRamp2D(data []complex128, l int, sign float64) {
	ramp := centerRamp(l, sign)
	for j := 0; j < l; j++ {
		rj := ramp[j]
		for k := 0; k < l; k++ {
			data[j*l+k] *= rj * ramp[k]
		}
	}
}

// centerRamp tabulates exp(sign·2πi·f·(l/2)/l) for every array index.
func centerRamp(l int, sign float64) []complex128 {
	c := float64(l / 2)
	out := make([]complex128, l)
	for i := 0; i < l; i++ {
		f := float64(fft.FreqIndex(i, l))
		out[i] = cmplx.Exp(complex(0, sign*2*math.Pi*f*c/float64(l)))
	}
	return out
}
