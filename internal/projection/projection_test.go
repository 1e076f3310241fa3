package projection

import (
	"math"
	"testing"

	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/volume"
)

func blobGrid(l int, blobs [][4]float64) *volume.Grid {
	g := volume.NewGrid(l)
	for x := 0; x < l; x++ {
		for y := 0; y < l; y++ {
			for z := 0; z < l; z++ {
				var v float64
				for _, b := range blobs {
					dx, dy, dz := float64(x)-b[0], float64(y)-b[1], float64(z)-b[2]
					v += math.Exp(-(dx*dx + dy*dy + dz*dz) / (2 * b[3] * b[3]))
				}
				g.Set(x, y, z, v)
			}
		}
	}
	return g
}

func asymGrid(l int) *volume.Grid {
	c := float64(l / 2)
	return blobGrid(l, [][4]float64{
		{c, c, c, 2.5},
		{c + 6, c, c, 2},
		{c - 3, c + 5, c - 2, 1.8},
		{c, c - 4, c + 4, 1.5},
	})
}

func TestRealProjectionAlongZ(t *testing.T) {
	// At the identity orientation the projection is the sum over z.
	l := 16
	g := asymGrid(l)
	p := Real(NewDensity(g), geom.Euler{})
	for j := 0; j < l; j++ {
		for k := 0; k < l; k++ {
			var want float64
			for z := 0; z < l; z++ {
				want += g.At(j, k, z)
			}
			if math.Abs(p.At(j, k)-want) > 1e-9 {
				t.Fatalf("projection(%d,%d) = %g, want %g", j, k, p.At(j, k), want)
			}
		}
	}
}

func TestRealProjectionMassConservation(t *testing.T) {
	// Total projected mass is independent of orientation for a
	// compact particle (rays never exit through the box walls).
	l := 32
	g := asymGrid(l)
	g.SphericalMask(10)
	var masses []float64
	for _, o := range []geom.Euler{{}, {Theta: 30, Phi: 60, Omega: 0}, {Theta: 85, Phi: 200, Omega: 45}, {Theta: 140, Phi: 10, Omega: 300}} {
		p := Real(NewDensity(g), o)
		var m float64
		for _, v := range p.Data {
			m += v
		}
		masses = append(masses, m)
	}
	for _, m := range masses[1:] {
		if math.Abs(m-masses[0])/masses[0] > 1e-3 {
			t.Fatalf("projected mass varies with orientation: %v", masses)
		}
	}
}

func TestProjectionSliceTheorem(t *testing.T) {
	// Real-space projection and Fourier-slice projection must agree —
	// this is the correctness foundation of the entire algorithm.
	l := 32
	g := asymGrid(l)
	g.SphericalMask(11)
	vdft := fourier.NewVolumeDFT(g)
	rmax := float64(l)/2 - 1
	for _, o := range []geom.Euler{
		{},
		{Theta: 90, Phi: 0, Omega: 0},
		{Theta: 45, Phi: 120, Omega: 30},
		{Theta: 133, Phi: 311, Omega: 201},
	} {
		pr := Real(NewDensity(g), o)
		pf := Fourier(vdft, o, rmax, fourier.Trilinear)
		cc := volume.ImageCorrelation(pr, pf)
		if cc < 0.98 {
			t.Errorf("orientation %v: real/Fourier projection correlation %.4f, want ≥0.98", o, cc)
		}
	}
}

func TestProjectionSliceTheoremTrilinearBeatsNearest(t *testing.T) {
	l := 32
	g := asymGrid(l)
	g.SphericalMask(11)
	vdft := fourier.NewVolumeDFT(g)
	o := geom.Euler{Theta: 52, Phi: 77, Omega: 13}
	pr := Real(NewDensity(g), o)
	ccTri := volume.ImageCorrelation(pr, Fourier(vdft, o, 15, fourier.Trilinear))
	ccNear := volume.ImageCorrelation(pr, Fourier(vdft, o, 15, fourier.Nearest))
	if ccTri <= ccNear {
		t.Errorf("trilinear (%.4f) should beat nearest (%.4f)", ccTri, ccNear)
	}
}

func TestFourierProjectionInPlaneRotation(t *testing.T) {
	// Increasing ω by 90° rotates the projection by 90° in-plane:
	// compare pixel-rotated images.
	l := 32
	g := asymGrid(l)
	g.SphericalMask(11)
	vdft := fourier.NewVolumeDFT(g)
	o := geom.Euler{Theta: 60, Phi: 45, Omega: 0}
	p0 := Fourier(vdft, o, 14, fourier.Trilinear)
	p90 := Fourier(vdft, geom.Euler{Theta: 60, Phi: 45, Omega: 90}, 14, fourier.Trilinear)
	// Rotate p0 by 90° about the image centre and compare with p90.
	rot := volume.NewImage(l)
	c := l / 2
	for j := 0; j < l; j++ {
		for k := 0; k < l; k++ {
			// E_90(u,v) = E_0(−v, u) about centre c.
			u, v := j-c, k-c
			x, y := c-v, c+u
			if x >= 0 && x < l && y >= 0 && y < l {
				rot.Set(j, k, p0.At(x, y))
			}
		}
	}
	if cc := volume.ImageCorrelation(rot, p90); cc < 0.95 {
		t.Fatalf("ω rotation does not act as in-plane rotation: correlation %.4f", cc)
	}
}

func TestProjectionDistinguishesOrientations(t *testing.T) {
	// Projections at well-separated orientations of an asymmetric
	// particle must differ — otherwise orientation search could not
	// work at all.
	l := 32
	g := asymGrid(l)
	g.SphericalMask(11)
	a := Real(NewDensity(g), geom.Euler{Theta: 20, Phi: 0, Omega: 0})
	b := Real(NewDensity(g), geom.Euler{Theta: 110, Phi: 140, Omega: 60})
	if cc := volume.ImageCorrelation(a, b); cc > 0.95 {
		t.Fatalf("distant orientations give near-identical projections (cc=%.4f)", cc)
	}
}
