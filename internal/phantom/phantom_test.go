package phantom

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/volume"
)

func TestRasterizeSingleBlob(t *testing.T) {
	l := 16
	g := Rasterize(l, []Blob{{Center: geom.Vec3{}, Sigma: 2, Amplitude: 3}})
	c := l / 2
	if math.Abs(g.At(c, c, c)-3) > 1e-9 {
		t.Fatalf("blob peak %g, want 3", g.At(c, c, c))
	}
	// One sigma away: 3·exp(−1/2).
	want := 3 * math.Exp(-0.5)
	if math.Abs(g.At(c+2, c, c)-want) > 1e-9 {
		t.Fatalf("blob at 1σ = %g, want %g", g.At(c+2, c, c), want)
	}
	// Far corner untouched (cutoff at 4σ).
	if g.At(0, 0, 0) != 0 {
		t.Fatal("blob leaked past cutoff")
	}
}

func TestRasterizeOffsetBlob(t *testing.T) {
	l := 16
	g := Rasterize(l, []Blob{{Center: geom.Vec3{X: 3, Y: -2, Z: 1}, Sigma: 1.5, Amplitude: 1}})
	c := l / 2
	if math.Abs(g.At(c+3, c-2, c+1)-1) > 1e-9 {
		t.Fatal("offset blob peak misplaced")
	}
}

func TestSymmetrizeOrbitCount(t *testing.T) {
	g := geom.Icosahedral()
	// A generic seed yields 60 copies.
	seeds := []Blob{{Center: geom.Vec3{X: 5, Y: 2, Z: 7}, Sigma: 1, Amplitude: 1}}
	out := Symmetrize(g, seeds)
	if len(out) != 60 {
		t.Fatalf("generic orbit size %d, want 60", len(out))
	}
	// A seed on a 5-fold axis collapses to 12 vertices.
	phi := (1 + math.Sqrt(5)) / 2
	axis := geom.Vec3{X: 0, Y: 1, Z: phi}.Unit().Scale(8)
	out = Symmetrize(g, []Blob{{Center: axis, Sigma: 1, Amplitude: 1}})
	if len(out) != 12 {
		t.Fatalf("five-fold-axis orbit size %d, want 12", len(out))
	}
}

func TestSindbisLikeIsIcosahedral(t *testing.T) {
	l := 32
	m := SindbisLike(l)
	g := geom.Icosahedral()
	// Rotating by any group element must leave the map essentially
	// unchanged (resampling error only).
	for _, idx := range []int{1, 17, 42} {
		rot := m.Rotate([3][3]float64(g.Elements[idx]))
		if cc := volume.Correlation(m, rot); cc < 0.95 {
			t.Fatalf("element %d: symmetry correlation %.4f", idx, cc)
		}
	}
	// Rotating by a non-group rotation must change it noticeably.
	rot := m.Rotate([3][3]float64(geom.RotZ(geom.DegToRad(37))))
	if cc := volume.Correlation(m, rot); cc > 0.9 {
		t.Fatalf("non-symmetry rotation left map invariant (cc=%.4f)", cc)
	}
}

func TestReoLikeHasTwoShells(t *testing.T) {
	l := 48
	m := ReoLike(l)
	c := l / 2
	// Radial mass profile must show density at both shell radii and a
	// gap between them.
	radial := make([]float64, l/2)
	counts := make([]int, l/2)
	for x := 0; x < l; x++ {
		for y := 0; y < l; y++ {
			for z := 0; z < l; z++ {
				dx, dy, dz := float64(x-c), float64(y-c), float64(z-c)
				r := int(math.Sqrt(dx*dx + dy*dy + dz*dz))
				if r < l/2 {
					radial[r] += m.At(x, y, z)
					counts[r]++
				}
			}
		}
	}
	for i := range radial {
		if counts[i] > 0 {
			radial[i] /= float64(counts[i])
		}
	}
	inner, outer := int(0.22*float64(l)), int(0.36*float64(l))
	mid := (inner + outer) / 2
	if radial[inner] <= radial[mid] || radial[outer] <= radial[mid] {
		t.Fatalf("no double-shell structure: inner=%g mid=%g outer=%g",
			radial[inner], radial[mid], radial[outer])
	}
}

func TestAsymmetricHasNoSymmetry(t *testing.T) {
	m := Asymmetric(32, 12, 3)
	g := geom.Icosahedral()
	for _, idx := range []int{1, 30} {
		rot := m.Rotate([3][3]float64(g.Elements[idx]))
		if cc := volume.Correlation(m, rot); cc > 0.8 {
			t.Fatalf("asymmetric phantom invariant under icosahedral element %d (cc=%.4f)", idx, cc)
		}
	}
}

func TestAsymmetricDeterministic(t *testing.T) {
	a := Asymmetric(16, 5, 7)
	b := Asymmetric(16, 5, 7)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("phantom not deterministic for fixed seed")
		}
	}
	cdiff := Asymmetric(16, 5, 8)
	same := true
	for i := range a.Data {
		if a.Data[i] != cdiff.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical phantoms")
	}
}

func TestCnSymmetric(t *testing.T) {
	m := CnSymmetric(32, 4, 5)
	// Invariant under 90° about Z.
	rot := m.Rotate([3][3]float64(geom.RotZ(math.Pi / 2)))
	if cc := volume.Correlation(m, rot); cc < 0.95 {
		t.Fatalf("C4 phantom not 4-fold symmetric (cc=%.4f)", cc)
	}
	// Not invariant under 45°.
	rot45 := m.Rotate([3][3]float64(geom.RotZ(math.Pi / 4)))
	if cc := volume.Correlation(m, rot45); cc > 0.9 {
		t.Fatalf("C4 phantom invariant under 45° (cc=%.4f)", cc)
	}
}

func TestParticleFitsInBox(t *testing.T) {
	for _, m := range []*volume.Grid{SindbisLike(32), ReoLike(32), Asymmetric(32, 10, 1)} {
		// Density at the box faces must be negligible relative to peak.
		_, max, _, _ := m.Stats()
		edgeMax := 0.0
		l := m.L
		for a := 0; a < l; a++ {
			for b := 0; b < l; b++ {
				for _, v := range []float64{m.At(0, a, b), m.At(l-1, a, b), m.At(a, 0, b), m.At(a, l-1, b), m.At(a, b, 0), m.At(a, b, l-1)} {
					if v > edgeMax {
						edgeMax = v
					}
				}
			}
		}
		if edgeMax > 0.05*max {
			t.Fatalf("particle touches box wall: edge %g vs peak %g", edgeMax, max)
		}
	}
}
