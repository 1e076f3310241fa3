package reconstruct

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/ctf"
	"repro/internal/fft"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/pool"
	"repro/internal/volume"
)

// insertChunk is how many views InsertViews prepares before it
// scatters them. It bounds the prepared-coefficient buffer (24 bytes
// per band coefficient per view) and never affects the output.
const insertChunk = 32

// ParallelOptions extends Options with the execution shape of the
// parallel kernel.
type ParallelOptions struct {
	Options
	// Workers bounds the parallelism of insertion and Finish; ≤0
	// selects GOMAXPROCS. Workers never affects the result, only wall
	// time.
	Workers int
}

// ViewTask is one view queued for insertion: the image, its refined
// orientation, the centre correction applied as a phase ramp, and the
// CTF parameters (consulted only under Options.WienerCTF).
type ViewTask struct {
	Image  *volume.Image
	Orient geom.Euler
	Center [2]float64
	CTF    ctf.Params
}

// Sharded is the parallel reconstruction kernel. It owns one num/den
// accumulator pair and inserts views in two phases per chunk of views:
// prepare (parallel over views) transforms each view and writes its
// weighted band coefficients, and scatter (parallel over contiguous
// x-plane slabs) spreads them onto the lattice, each slab writing only
// the corners whose x index it owns and walking the views in order. So
// every voxel sums its contributions in view order, whatever the worker
// count or chunking. The name predates the single accumulator; the
// benchmark harness calls NewSharded.
//
// Results are bit-identical across worker counts and across Insert and
// InsertViews, and agree with the serial Reconstructor oracle to
// ≤1e-12. Methods may be called from one goroutine at a time.
type Sharded struct {
	l       int
	ri      int
	opt     Options
	workers int
	num     []complex128
	den     []float64
	wrapTab []int32 // wrapTab[i+l] = wrap(i, l) for i ∈ [−l, l+1]
	kMax    []int   // band row h spans k ∈ [−kMax[h+ri], kMax[h+ri]]
	nBand   int     // coefficients per view

	preps []*viewPrep    // one per prepare worker
	band  []weighted     // nBand prepared coefficients per chunk slot
	axes  [][2]geom.Vec3 // image axes x̂', ŷ' per chunk slot
	n     int            // views inserted
}

// weighted is one prepared band coefficient: the view's coefficient
// after phase ramp and CTF weighting, and its weight in den.
type weighted struct {
	val complex128
	w   float64
}

// viewPrep is one prepare worker's scratch: the real-input FFT
// transformer, the spectrum buffer, the separable phase-ramp tables,
// and the memoized CTF profile of the last-seen parameter set.
type viewPrep struct {
	tx           *fourier.ViewTransformer
	spec         *volume.CImage
	rampH, rampK []complex128

	// CTF memo: the CTF is radial, so within one parameter set the
	// value at bin (h,k) depends only on h²+k². Views from the same
	// defocus group (the common case: "views originated from the same
	// micrograph have the same CTF") reuse the table.
	ctfParams ctf.Params
	ctfValid  bool
	ctfTab    []float64
	ctfSet    []bool
}

// NewSharded creates a parallel reconstructor for l×l views and an l³
// output map.
func NewSharded(l int, opt ParallelOptions) *Sharded {
	if l < 2 {
		panic(fmt.Sprintf("reconstruct: invalid size %d", l))
	}
	o := opt.Options.normalized(l)
	ri := int(o.RMax)
	s := &Sharded{
		l:       l,
		ri:      ri,
		opt:     o,
		workers: opt.Workers,
		num:     make([]complex128, l*l*l),
		den:     make([]float64, l*l*l),
		wrapTab: make([]int32, 2*l+2),
		kMax:    make([]int, 2*ri+1),
		preps:   make([]*viewPrep, pool.Workers(insertChunk, opt.Workers)),
	}
	for i := range s.wrapTab {
		s.wrapTab[i] = int32(wrap(i-l, l))
	}
	// The band is the disc h²+k² ≤ RMax²; row h is a symmetric k run.
	r2 := o.RMax * o.RMax
	for h := -ri; h <= ri; h++ {
		fh, k := float64(h), ri
		for fh*fh+float64(k)*float64(k) > r2 {
			k--
		}
		s.kMax[h+ri] = k
		s.nBand += 2*k + 1
	}
	maxSS := 2*ri*ri + 1
	for i := range s.preps {
		s.preps[i] = &viewPrep{
			tx:     fourier.NewViewTransformer(l),
			spec:   volume.NewCImage(l),
			rampH:  make([]complex128, l),
			rampK:  make([]complex128, l),
			ctfTab: make([]float64, maxSS),
			ctfSet: make([]bool, maxSS),
		}
	}
	return s
}

// Views returns how many views have been inserted.
func (s *Sharded) Views() int { return s.n }

// validate rejects a task the kernel cannot take; it runs on the
// caller's goroutine so errors are synchronous and deterministic.
func (s *Sharded) validate(t ViewTask) error {
	if t.Image.L != s.l {
		return fmt.Errorf("reconstruct: view size %d, want %d", t.Image.L, s.l)
	}
	return checkCenter(t.Center)
}

// reserve sizes the chunk buffers for n views.
func (s *Sharded) reserve(n int) {
	if len(s.axes) < n {
		s.axes = make([][2]geom.Vec3, n)
		s.band = make([]weighted, n*s.nBand)
	}
}

// Insert adds one view synchronously on the calling goroutine; it is
// InsertViews on a one-view batch.
func (s *Sharded) Insert(im *volume.Image, o geom.Euler, center [2]float64, p ctf.Params) error {
	t := ViewTask{Image: im, Orient: o, Center: center, CTF: p}
	if err := s.validate(t); err != nil {
		return err
	}
	s.reserve(1)
	s.prepare(s.preps[0], t, 0)
	s.scatter(1, 0, s.l)
	s.n++
	return nil
}

// InsertViews adds a batch of views on a worker pool. Every task is
// validated before any is inserted, so a failed call leaves the
// accumulation state untouched. Each chunk of views is prepared in
// parallel, then scattered by x-plane slab; a slab visits the chunk's
// views in order, which is what makes the result independent of
// scheduling.
func (s *Sharded) InsertViews(tasks []ViewTask) error {
	for i := range tasks {
		if err := s.validate(tasks[i]); err != nil {
			return fmt.Errorf("view %d: %w", i, err)
		}
	}
	s.reserve(min(len(tasks), insertChunk))
	slabs := pool.Workers(s.l, s.workers)
	for lo := 0; lo < len(tasks); lo += insertChunk {
		chunk := tasks[lo:min(lo+insertChunk, len(tasks))]
		pool.RunIndexedLabeled("reconstruct.prepare", len(chunk), len(s.preps), func(w, i int) {
			s.prepare(s.preps[w], chunk[i], i)
		})
		pool.RunIndexedLabeled("reconstruct.scatter", slabs, slabs, func(_, sl int) {
			s.scatter(len(chunk), sl*s.l/slabs, (sl+1)*s.l/slabs)
		})
	}
	s.n += len(tasks)
	return nil
}

// Finish normalizes the one accumulator pair into the Hermitian half
// spectrum and inverse-transforms it, both on Workers. Accumulation
// state is not mutated; the reconstructor may continue inserting views
// afterwards, and repeated calls return identical maps.
func (s *Sharded) Finish() *volume.Grid {
	return finishVolume(s.l, s.opt, s.num, s.den, s.workers)
}

// prepare writes the weighted band coefficients of one view into chunk
// slot: one real-input 2-D DFT into worker scratch, then the phase ramp
// and CTF weighting applied per band coefficient from tabulated
// values. It allocates nothing.
//
//repro:hotpath
func (s *Sharded) prepare(p *viewPrep, t ViewTask, slot int) {
	l := s.l
	p.tx.Transform(t.Image, p.spec)
	shift := t.Center[0] != 0 || t.Center[1] != 0
	if shift {
		fillShiftRamp(p.rampH, t.Center[0], l)
		fillShiftRamp(p.rampK, t.Center[1], l)
	}
	wiener := s.opt.WienerCTF
	if wiener && (!p.ctfValid || t.CTF != p.ctfParams) {
		clear(p.ctfSet)
		p.ctfParams, p.ctfValid = t.CTF, true
	}
	rot := t.Orient.Matrix()
	s.axes[slot] = [2]geom.Vec3{rot.Col(0), rot.Col(1)}
	dst := s.band[slot*s.nBand : (slot+1)*s.nBand]
	wt := s.wrapTab
	spec := p.spec.Data
	j := 0
	for h := -s.ri; h <= s.ri; h++ {
		hw := int(wt[h+l])
		row := hw * l
		var rh complex128
		if shift {
			rh = p.rampH[hw]
		}
		km := s.kMax[h+s.ri]
		for k := -km; k <= km; k++ {
			kw := int(wt[k+l])
			val := spec[row+kw]
			if shift {
				val *= rh * p.rampK[kw]
			}
			w := 1.0
			if wiener {
				ss := h*h + k*k
				c := p.ctfTab[ss]
				if !p.ctfSet[ss] {
					c = t.CTF.Eval(t.CTF.FreqOfBin(h, k, l))
					p.ctfTab[ss], p.ctfSet[ss] = c, true
				}
				val *= complex(c, 0)
				w = c * c
			}
			dst[j] = weighted{val, w}
			j++
		}
	}
	viewsInserted.Inc()
	coeffsSpread.Add(int64(s.nBand))
}

// scatter spreads the first n prepared views of the chunk onto the
// lattice planes x ∈ [lo, hi), trilinearly, views in slot order and
// each view's coefficients in band order — so a voxel receives its
// contributions in the same order whichever slab owns it.
//
// The scatter needs no bounds check: the rotation is orthonormal, so
// |pt| = √(h²+k²) ≤ RMax ≤ l/2, and the wrap table covers the one-cell
// overshoot floor/+1 can produce at the Nyquist boundary.
//
//repro:hotpath
func (s *Sharded) scatter(n, lo, hi int) {
	l := s.l
	wt := s.wrapTab
	num, den := s.num, s.den
	for v := 0; v < n; v++ {
		xa, ya := s.axes[v][0], s.axes[v][1]
		src := s.band[v*s.nBand : (v+1)*s.nBand]
		j := 0
		for h := -s.ri; h <= s.ri; h++ {
			fh := float64(h)
			hx, hy, hz := xa.X*fh, xa.Y*fh, xa.Z*fh
			km := s.kMax[h+s.ri]
			for k := -km; k <= km; k++ {
				c := &src[j]
				j++
				fk := float64(k)
				px := hx + ya.X*fk
				x0 := int(math.Floor(px))
				x0w, x1w := int(wt[x0+l]), int(wt[x0+1+l])
				own0, own1 := x0w >= lo && x0w < hi, x1w >= lo && x1w < hi
				if !own0 && !own1 {
					continue
				}
				py := hy + ya.Y*fk
				pz := hz + ya.Z*fk
				y0 := int(math.Floor(py))
				z0 := int(math.Floor(pz))
				fx, fy, fz := px-float64(x0), py-float64(y0), pz-float64(z0)
				gx, gy, gz := 1-fx, 1-fy, 1-fz
				y0w, y1w := int(wt[y0+l]), int(wt[y0+1+l])
				z0w, z1w := int(wt[z0+l]), int(wt[z0+1+l])
				val, w := c.val, c.w
				// Unrolled 2×2 scatter per owned x plane. The weight
				// products mirror the oracle's (wx·wy)·wz association
				// exactly, so the scatter adds no rounding difference
				// from the serial path.
				if own0 {
					b0, b1 := (x0w*l+y0w)*l, (x0w*l+y1w)*l
					w00, w01 := gx*gy, gx*fy
					c000, c001 := w00*gz, w00*fz
					c010, c011 := w01*gz, w01*fz
					num[b0+z0w] += val * complex(c000, 0)
					den[b0+z0w] += c000 * w
					num[b0+z1w] += val * complex(c001, 0)
					den[b0+z1w] += c001 * w
					num[b1+z0w] += val * complex(c010, 0)
					den[b1+z0w] += c010 * w
					num[b1+z1w] += val * complex(c011, 0)
					den[b1+z1w] += c011 * w
				}
				if own1 {
					b0, b1 := (x1w*l+y0w)*l, (x1w*l+y1w)*l
					w10, w11 := fx*gy, fx*fy
					c100, c101 := w10*gz, w10*fz
					c110, c111 := w11*gz, w11*fz
					num[b0+z0w] += val * complex(c100, 0)
					den[b0+z0w] += c100 * w
					num[b0+z1w] += val * complex(c101, 0)
					den[b0+z1w] += c101 * w
					num[b1+z0w] += val * complex(c110, 0)
					den[b1+z0w] += c110 * w
					num[b1+z1w] += val * complex(c111, 0)
					den[b1+z1w] += c111 * w
				}
			}
		}
	}
}

// fillShiftRamp tabulates exp(−2πi·f·d/l) for every array index, the
// separable factor of the Fourier shift theorem along one image axis.
// Two l-entry tables replace the l² complex exponentials the generic
// ShiftPhase pays per view.
func fillShiftRamp(dst []complex128, d float64, l int) {
	for j := range dst {
		f := float64(fft.FreqIndex(j, l))
		dst[j] = cmplx.Exp(complex(0, -2*math.Pi*f*d/float64(l)))
	}
}

// FromViewsParallel reconstructs a map on the parallel kernel with an
// explicit execution shape. ctfs may be nil when Options.WienerCTF is
// off.
func FromViewsParallel(views []*volume.Image, orients []geom.Euler, centers [][2]float64, ctfs []ctf.Params, opt ParallelOptions) (*volume.Grid, error) {
	if err := validateSet(views, orients, centers, ctfs, opt.Options); err != nil {
		return nil, err
	}
	rec := NewSharded(views[0].L, opt)
	tasks := make([]ViewTask, len(views))
	for i := range views {
		tasks[i] = taskAt(views, orients, centers, ctfs, i)
	}
	if err := rec.InsertViews(tasks); err != nil {
		return nil, err
	}
	return rec.Finish(), nil
}

// SplitHalvesParallel builds the odd and even half-maps: one pass over
// the views routes each task to its half's list, and each half is one
// InsertViews call, finished before the next half is built. Each half
// sees its views in dataset order, so the outputs are bit-identical to
// reconstructing the two subsets with FromViewsParallel.
func SplitHalvesParallel(views []*volume.Image, orients []geom.Euler, centers [][2]float64, ctfs []ctf.Params, opt ParallelOptions) (*volume.Grid, *volume.Grid, error) {
	if err := validateSet(views, orients, centers, ctfs, opt.Options); err != nil {
		return nil, nil, err
	}
	if len(views) < 2 {
		return nil, nil, fmt.Errorf("reconstruct: need at least 2 views to split")
	}
	// halves[0] holds views 1, 3, 5... in 1-based numbering.
	halves := [2][]ViewTask{make([]ViewTask, 0, (len(views)+1)/2), make([]ViewTask, 0, len(views)/2)}
	for i := range views {
		halves[i%2] = append(halves[i%2], taskAt(views, orients, centers, ctfs, i))
	}
	var maps [2]*volume.Grid
	for i, tasks := range halves {
		rec := NewSharded(views[0].L, opt)
		if err := rec.InsertViews(tasks); err != nil { // unreachable: validateSet vetted every task
			return nil, nil, err
		}
		maps[i] = rec.Finish()
	}
	return maps[0], maps[1], nil
}
