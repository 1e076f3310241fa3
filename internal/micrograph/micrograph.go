// Package micrograph simulates the experimental data-acquisition side
// of the pipeline that cannot be reproduced from the paper: cryo-TEM
// micrographs of frozen-hydrated virus particles. It generates
// synthetic particle views by projecting a known ground-truth density
// at random orientations, shifting them off-centre, corrupting them
// with the microscope CTF and additive Gaussian noise — and it can lay
// those views out on a large synthetic micrograph and box them back
// out (step A of the structure-determination procedure), including
// centre-of-mass pre-centring.
//
// Because the particles come from a known map at known orientations,
// every downstream experiment can report true angular and centre
// errors, something the original work could only infer indirectly.
package micrograph

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ctf"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/pool"
	"repro/internal/projection"
	"repro/internal/volume"
)

// View is one synthetic "experimental" particle image with its ground
// truth attached.
type View struct {
	Image *volume.Image
	// TrueOrient is the orientation the projection was made at.
	TrueOrient geom.Euler
	// TrueCenter is the applied centre offset in pixels (dx, dy): the
	// particle origin sits at (l/2 + dx, l/2 + dy).
	TrueCenter [2]float64
	// CTF holds the microscope parameters of the view's micrograph
	// (views from the same defocus group share identical values).
	CTF ctf.Params
	// Group is the defocus-group (micrograph) index.
	Group int
}

// Dataset is a full synthetic single-particle dataset.
type Dataset struct {
	L      int
	PixelA float64
	Truth  *volume.Grid
	Views  []*View
	// HasCTF records whether views were CTF-corrupted.
	HasCTF bool
}

// GenParams controls dataset synthesis.
type GenParams struct {
	NumViews int
	// PixelA is the sampling in Å/pixel (sets the resolution scale of
	// FSC plots).
	PixelA float64
	// SNR is the per-pixel signal-to-noise power ratio; <=0 disables
	// noise.
	SNR float64
	// CenterJitter is the maximum |dx|,|dy| centre offset in pixels.
	CenterJitter float64
	// ApplyCTF corrupts views with the microscope transfer function.
	ApplyCTF bool
	// DefocusGroups is the number of distinct micrographs (defocus
	// values) when ApplyCTF is set; minimum 1.
	DefocusGroups int
	// Seed makes generation reproducible.
	Seed int64
}

// RandomOrientation draws an orientation uniformly over SO(3): the
// view axis uniform on the sphere, ω uniform in [0, 360).
func RandomOrientation(rng *rand.Rand) geom.Euler {
	cos := 2*rng.Float64() - 1
	return geom.Euler{
		Theta: geom.RadToDeg(math.Acos(cos)),
		Phi:   rng.Float64() * 360,
		Omega: rng.Float64() * 360,
	}
}

// Generate synthesizes a dataset of p.NumViews views of the truth map.
// The views are synthesized on GOMAXPROCS workers; the dataset's bits
// do not depend on their number.
func Generate(truth *volume.Grid, p GenParams) *Dataset {
	if p.NumViews < 1 {
		panic(fmt.Sprintf("micrograph: invalid view count %d", p.NumViews))
	}
	groups := p.DefocusGroups
	if groups < 1 {
		groups = 1
	}
	rng := rand.New(rand.NewSource(p.Seed))
	l := truth.L
	ds := &Dataset{L: l, PixelA: p.PixelA, Truth: truth, HasCTF: p.ApplyCTF}
	// Per-group defocus spread around the typical value.
	params := make([]ctf.Params, groups)
	for i := range params {
		params[i] = ctf.Typical(p.PixelA)
		params[i].DefocusA *= 0.8 + 0.4*rng.Float64()
	}
	// Every random value is drawn here, on the caller's goroutine, in
	// the serial order: orientation, jitter, group, then the l² noise
	// normals, which go straight into the view's own image.
	ds.Views = make([]*View, p.NumViews)
	for i := range ds.Views {
		o := RandomOrientation(rng)
		var dx, dy float64
		if p.CenterJitter > 0 {
			dx = (2*rng.Float64() - 1) * p.CenterJitter
			dy = (2*rng.Float64() - 1) * p.CenterJitter
		}
		g := rng.Intn(groups)
		v := &View{TrueOrient: o, TrueCenter: [2]float64{dx, dy}, CTF: params[g], Group: g}
		if p.SNR > 0 {
			v.Image = volume.NewImage(l)
			for j := range v.Image.Data {
				v.Image.Data[j] = rng.NormFloat64()
			}
		}
		ds.Views[i] = v
	}
	// Synthesis draws nothing, so the views run on the pool; each
	// writes only its own image. The truth's support is measured once
	// for all of them, and each group's CTF is tabulated once for its
	// views.
	density := projection.NewDensity(truth)
	var tables [][]float64
	if p.ApplyCTF {
		tables = make([][]float64, groups)
		for g := range tables {
			tables[g] = params[g].Table(l)
		}
	}
	pool.RunIndexedLabeled("micrograph.generate", len(ds.Views), 0, func(_, i int) {
		v := ds.Views[i]
		var tab []float64
		if p.ApplyCTF {
			tab = tables[v.Group]
		}
		im := synthesize(density, v.TrueOrient, v.TrueCenter[0], v.TrueCenter[1], tab)
		if p.SNR <= 0 {
			v.Image = im
			return
		}
		// White Gaussian noise at power SNR relative to the image
		// variance: σ times the view's normals.
		_, _, _, std := im.Stats()
		sigma := std / math.Sqrt(p.SNR)
		for j, n := range v.Image.Data {
			v.Image.Data[j] = im.Data[j] + sigma*n
		}
	})
	return ds
}

// synthesize projects, shifts, and CTF-corrupts one view; ctfTab is
// the view's ctf.Params.Table, or nil for no CTF.
func synthesize(truth projection.Density, o geom.Euler, dx, dy float64, ctfTab []float64) *volume.Image {
	im := projection.Real(truth, o)
	if dx == 0 && dy == 0 && ctfTab == nil {
		return im
	}
	f := fourier.ImageDFT(im)
	if dx != 0 || dy != 0 {
		fourier.ShiftPhase(f, dx, dy)
	}
	if ctfTab != nil {
		ctf.Apply(f, ctfTab)
	}
	return fourier.InverseImageDFT(f)
}

// PerturbedOrientations returns each view's true orientation displaced
// by up to maxAngle degrees per Euler axis — the "rough estimation of
// the orientation, say at 3° angular resolution" that refinement
// starts from.
func (ds *Dataset) PerturbedOrientations(maxAngle float64, seed int64) []geom.Euler {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Euler, len(ds.Views))
	for i, v := range ds.Views {
		out[i] = geom.Euler{
			Theta: v.TrueOrient.Theta + (2*rng.Float64()-1)*maxAngle,
			Phi:   v.TrueOrient.Phi + (2*rng.Float64()-1)*maxAngle,
			Omega: v.TrueOrient.Omega + (2*rng.Float64()-1)*maxAngle,
		}
	}
	return out
}

// TrueOrientations returns the ground-truth orientation of every view.
func (ds *Dataset) TrueOrientations() []geom.Euler {
	out := make([]geom.Euler, len(ds.Views))
	for i, v := range ds.Views {
		out[i] = v.TrueOrient
	}
	return out
}

// Images returns the view images in dataset order.
func (ds *Dataset) Images() []*volume.Image {
	out := make([]*volume.Image, len(ds.Views))
	for i, v := range ds.Views {
		out[i] = v.Image
	}
	return out
}

// CTFs returns each view's microscope parameters in dataset order.
func (ds *Dataset) CTFs() []ctf.Params {
	out := make([]ctf.Params, len(ds.Views))
	for i, v := range ds.Views {
		out[i] = v.CTF
	}
	return out
}
